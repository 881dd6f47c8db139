(** The [bosec serve] compile/sample service: a long-running process
    answering line-delimited JSON requests (one request per line, one
    reply per line — full schemas in docs/SERVING.md) over
    stdin/stdout or a Unix-domain socket.

    Request ops: [ping], [compile], [analyze], [sample], [stats],
    [shutdown]. [analyze] runs the {!Bose_flow.Flow} static analysis
    (plus the lint passes) over an inline plan or a cached compile
    artifact and replies with the report and diagnostics.
    Every reply carries the request's [id] back and is either
    [{"id":..,"ok":true,"result":{..}}] or
    [{"id":..,"ok":false,"error":{"code":..,"message":..}}] with code
    [parse], [bad-request] or [internal]. A malformed line never kills
    the server.

    Compile results are cached in one tier. With a cache directory it
    is a {!Bose_store.Diskcache} keyed by a
    {!Bosehedral.Pass.Fingerprint} over the request's full content
    (config, tau, effort, device, unitary entries — the seed is
    deliberately excluded: same content, same artifact); a disk hit
    returns the stored bytes verbatim, so artifacts are bit-identical
    across server restarts. Without one it is the in-process
    {!Bosehedral.Pipeline.Cache} of pass-level artifacts. (Every pass
    fingerprint folds in the fields of the disk key, so behind a store
    the pass cache would only hold memory.)

    Within a batch each key compiles once: later requests for it get
    the first compile's artifacts, as a disk hit after the
    write-through, or as [cached:"mem"] without a store. Batches of
    two or more distinct misses are fanned out over a
    {!Bose_par.Pool}; sampling requests hand the pool to the sampler's
    chain fan-out. All cache state is owner-domain-only — pool tasks
    compile cold and never touch either cache.

    Telemetry ([serve.*] counters/gauges, docs/METRICS.md) records
    request counts, per-level cache hits, latency and disk-store
    health; like all [Bose_obs] instrumentation it is off unless the
    caller enables it. *)

type t

val create :
  ?jobs:int -> ?cache_dir:string -> ?max_cache_mb:int -> unit -> t
(** [jobs] (default 1) is total domain parallelism — [jobs - 1] worker
    domains are spawned. [cache_dir] enables the disk store, sized by
    [max_cache_mb] (default 64).
    @raise Invalid_argument when [jobs < 1] or [max_cache_mb < 1]. *)

val shutdown : t -> unit
(** Join the worker domains. Idempotent; the serve loops call it on
    exit. *)

val stopping : t -> bool
(** True once a [shutdown] request was handled; the serve loops exit
    at the next iteration. *)

val handle_line : t -> string -> string
(** One request line in, one reply line out (no trailing newline).
    Exposed for tests and for embedding; never raises on bad input. *)

val handle_many : t -> string list -> string list
(** A batch of request lines, replies in order. Compile misses in the
    batch are compiled in parallel on the pool (when [jobs > 1]); the
    replies are identical to [List.map (handle_line t)]. *)

val serve_channels : t -> in_channel -> out_channel -> unit
(** Read request lines until EOF or a [shutdown] request, writing one
    flushed reply line each. Calls {!shutdown} before returning. *)

val serve_socket : t -> path:string -> unit
(** Bind a Unix-domain socket at [path] (replacing a stale socket
    file), accept any number of concurrent clients, and serve until a
    [shutdown] request. Lines arriving together across clients are
    handled as one {!handle_many} batch. Framing is linear in the bytes
    read, however long the line. SIGPIPE is ignored while serving: a
    client that hangs up before reading its reply is dropped, the
    others are unaffected. The socket file is removed on exit. *)
