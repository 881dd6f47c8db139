(* Global registry of named metrics. Everything is single-domain
   mutable state: the compiler pipeline is sequential, and the
   enabled check keeps the disabled cost to one load + branch. *)

let enabled_flag = ref false
let enable () = enabled_flag := true
let disable () = enabled_flag := false
let enabled () = !enabled_flag

(* Sys.time is process CPU time: monotone non-decreasing, available
   without unix. Binaries that link unix install gettimeofday. *)
let clock = ref Sys.time
let set_clock f = clock := f
let now () = !clock ()

let on_span_close :
  (name:string -> depth:int -> elapsed_s:float -> unit) option ref =
  ref None

(* --- Per-domain collectors ----------------------------------------

   The global registries below are plain single-domain mutable state.
   Pool workers (bose_par) therefore never touch them directly: each
   worker domain installs a [local_sink] in domain-local storage, every
   recording entry point routes to it when present, and the pool owner
   merges the sinks into the globals at the join barrier. The hot path
   stays lock-free — the only added cost while enabled is one DLS read
   per record. Metric registration ([make]) must still happen on the
   main domain (top-level [let]s, as every instrumented module does). *)

type local_gauge = { mutable lg_v : float; mutable lg_max : bool }

type local_histo = {
  lh_bounds : float array;
  lh_counts : int array;
  mutable lh_sum : float;
}

type local_span = {
  mutable ls_count : int;
  mutable ls_total_s : float;
  mutable ls_max_s : float;
  ls_depth : int;  (* depth at first open, within this sink *)
}

type local_sink = {
  l_counters : (string, int ref) Hashtbl.t;
  l_gauges : (string, local_gauge) Hashtbl.t;
  l_histos : (string, local_histo) Hashtbl.t;
  l_spans : (string, local_span) Hashtbl.t;
  mutable l_depth : int;
}

let sink_key : local_sink option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

module Counter = struct
  type t = { name : string; mutable v : int }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 32

  let make name =
    match Hashtbl.find_opt registry name with
    | Some c -> c
    | None ->
      let c = { name; v = 0 } in
      Hashtbl.add registry name c;
      c

  let incr ?(by = 1) c =
    if !enabled_flag then
      match Domain.DLS.get sink_key with
      | None -> c.v <- c.v + by
      | Some s ->
        (match Hashtbl.find_opt s.l_counters c.name with
         | Some r -> r := !r + by
         | None -> Hashtbl.add s.l_counters c.name (ref by))

  let value c = c.v
end

module Gauge = struct
  type t = { name : string; mutable v : float; mutable touched : bool }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 32

  let make name =
    match Hashtbl.find_opt registry name with
    | Some g -> g
    | None ->
      let g = { name; v = 0.; touched = false } in
      Hashtbl.add registry name g;
      g

  let set g x =
    if !enabled_flag then
      match Domain.DLS.get sink_key with
      | None ->
        g.v <- x;
        g.touched <- true
      | Some s ->
        (match Hashtbl.find_opt s.l_gauges g.name with
         | Some r ->
           r.lg_v <- x;
           r.lg_max <- false
         | None -> Hashtbl.add s.l_gauges g.name { lg_v = x; lg_max = false })

  let observe_max g x =
    if !enabled_flag then
      match Domain.DLS.get sink_key with
      | None ->
        if (not g.touched) || x > g.v then g.v <- x;
        g.touched <- true
      | Some s ->
        (match Hashtbl.find_opt s.l_gauges g.name with
         | Some r -> if x > r.lg_v then r.lg_v <- x
         | None -> Hashtbl.add s.l_gauges g.name { lg_v = x; lg_max = true })

  let value g = if g.touched then Some g.v else None
end

module Histo = struct
  type t = {
    name : string;
    bounds : float array;
    counts : int array;  (* length bounds + 1, last = overflow *)
    mutable sum : float;
  }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 16

  let make name ~bounds =
    match Hashtbl.find_opt registry name with
    | Some h -> h
    | None ->
      if Array.length bounds = 0 then invalid_arg "Obs.Histo.make: empty bounds";
      Array.iteri
        (fun i b ->
           if i > 0 && bounds.(i - 1) >= b then
             invalid_arg "Obs.Histo.make: bounds must be strictly increasing")
        bounds;
      let h =
        { name; bounds = Array.copy bounds;
          counts = Array.make (Array.length bounds + 1) 0; sum = 0. }
      in
      Hashtbl.add registry name h;
      h

  let bucket h v =
    let n = Array.length h.bounds in
    let rec find i = if i >= n || v <= h.bounds.(i) then i else find (i + 1) in
    find 0

  let observe h v =
    if !enabled_flag then
      match Domain.DLS.get sink_key with
      | None ->
        let b = bucket h v in
        h.counts.(b) <- h.counts.(b) + 1;
        h.sum <- h.sum +. v
      | Some s ->
        let r =
          match Hashtbl.find_opt s.l_histos h.name with
          | Some r -> r
          | None ->
            let r =
              { lh_bounds = h.bounds;
                lh_counts = Array.make (Array.length h.bounds + 1) 0; lh_sum = 0. }
            in
            Hashtbl.add s.l_histos h.name r;
            r
        in
        let b = bucket h v in
        r.lh_counts.(b) <- r.lh_counts.(b) + 1;
        r.lh_sum <- r.lh_sum +. v

  let total h = Array.fold_left ( + ) 0 h.counts
end

module Span = struct
  type entry = {
    name : string;
    mutable count : int;
    mutable total_s : float;
    mutable max_s : float;
    depth : int;  (* depth at first open *)
  }

  let registry : (string, entry) Hashtbl.t = Hashtbl.create 32
  let depth_now = ref 0

  let entry_for name depth =
    match Hashtbl.find_opt registry name with
    | Some e -> e
    | None ->
      let e = { name; count = 0; total_s = 0.; max_s = 0.; depth } in
      Hashtbl.add registry name e;
      e

  let close name d t0 =
    let dt = !clock () -. t0 in
    decr depth_now;
    let e = entry_for name d in
    e.count <- e.count + 1;
    e.total_s <- e.total_s +. dt;
    if dt > e.max_s then e.max_s <- dt;
    match !on_span_close with
    | Some hook -> hook ~name ~depth:d ~elapsed_s:dt
    | None -> ()

  (* Worker-side spans accumulate into the sink; the live-trace hook
     ([on_span_close]) fires only for owner-domain spans. *)
  let close_local (s : local_sink) name d t0 =
    let dt = !clock () -. t0 in
    s.l_depth <- s.l_depth - 1;
    let e =
      match Hashtbl.find_opt s.l_spans name with
      | Some e -> e
      | None ->
        let e = { ls_count = 0; ls_total_s = 0.; ls_max_s = 0.; ls_depth = d } in
        Hashtbl.add s.l_spans name e;
        e
    in
    e.ls_count <- e.ls_count + 1;
    e.ls_total_s <- e.ls_total_s +. dt;
    if dt > e.ls_max_s then e.ls_max_s <- dt

  let with_ name f =
    if not !enabled_flag then f ()
    else
      match Domain.DLS.get sink_key with
      | None ->
        let d = !depth_now in
        incr depth_now;
        let t0 = !clock () in
        (match f () with
         | v -> close name d t0; v
         | exception e -> close name d t0; raise e)
      | Some s ->
        let d = s.l_depth in
        s.l_depth <- d + 1;
        let t0 = !clock () in
        (match f () with
         | v -> close_local s name d t0; v
         | exception e -> close_local s name d t0; raise e)
end

let reset () =
  Hashtbl.iter (fun _ (c : Counter.t) -> c.Counter.v <- 0) Counter.registry;
  Hashtbl.iter
    (fun _ (g : Gauge.t) ->
       g.Gauge.v <- 0.;
       g.Gauge.touched <- false)
    Gauge.registry;
  Hashtbl.iter
    (fun _ (h : Histo.t) ->
       Array.fill h.Histo.counts 0 (Array.length h.Histo.counts) 0;
       h.Histo.sum <- 0.)
    Histo.registry;
  Hashtbl.iter
    (fun _ (e : Span.entry) ->
       e.Span.count <- 0;
       e.Span.total_s <- 0.;
       e.Span.max_s <- 0.)
    Span.registry;
  Span.depth_now := 0

module Local = struct
  type sink = local_sink

  let create () =
    {
      l_counters = Hashtbl.create 16;
      l_gauges = Hashtbl.create 16;
      l_histos = Hashtbl.create 8;
      l_spans = Hashtbl.create 16;
      l_depth = 0;
    }

  let install s = Domain.DLS.set sink_key (Some s)
  let uninstall () = Domain.DLS.set sink_key None
  let installed () = Option.is_some (Domain.DLS.get sink_key)

  (* Fold a quiesced sink into the global registry, then reset it for
     the next batch. Counters and histograms add; [set] gauges take the
     sink's value (merge order decides ties), [observe_max] gauges max;
     spans accumulate count/total and max the max. *)
  let merge s =
    Hashtbl.iter
      (fun name r ->
         let c = Counter.make name in
         c.Counter.v <- c.Counter.v + !r)
      s.l_counters;
    Hashtbl.iter
      (fun name (r : local_gauge) ->
         let g = Gauge.make name in
         if r.lg_max then begin
           if (not g.Gauge.touched) || r.lg_v > g.Gauge.v then g.Gauge.v <- r.lg_v
         end
         else g.Gauge.v <- r.lg_v;
         g.Gauge.touched <- true)
      s.l_gauges;
    Hashtbl.iter
      (fun name (r : local_histo) ->
         let h = Histo.make name ~bounds:r.lh_bounds in
         Array.iteri
           (fun i c -> h.Histo.counts.(i) <- h.Histo.counts.(i) + c)
           r.lh_counts;
         h.Histo.sum <- h.Histo.sum +. r.lh_sum)
      s.l_histos;
    Hashtbl.iter
      (fun name (r : local_span) ->
         let e = Span.entry_for name r.ls_depth in
         e.Span.count <- e.Span.count + r.ls_count;
         e.Span.total_s <- e.Span.total_s +. r.ls_total_s;
         if r.ls_max_s > e.Span.max_s then e.Span.max_s <- r.ls_max_s)
      s.l_spans;
    Hashtbl.reset s.l_counters;
    Hashtbl.reset s.l_gauges;
    Hashtbl.reset s.l_histos;
    Hashtbl.reset s.l_spans;
    s.l_depth <- 0
end

module Json = Bose_util.Json

module Report = struct
  type span = {
    name : string;
    count : int;
    total_s : float;
    max_s : float;
    depth : int;
  }

  type histogram = {
    name : string;
    bounds : float array;
    counts : int array;
    sum : float;
  }

  type t = {
    spans : span list;
    counters : (string * int) list;
    gauges : (string * float) list;
    histograms : histogram list;
  }

  let by_name f a b = compare (f a) (f b)

  let capture () =
    let spans =
      Hashtbl.fold
        (fun _ (e : Span.entry) acc ->
           if e.Span.count = 0 then acc
           else
             { name = e.Span.name; count = e.Span.count;
               total_s = e.Span.total_s; max_s = e.Span.max_s;
               depth = e.Span.depth }
             :: acc)
        Span.registry []
      |> List.sort (by_name (fun (s : span) -> s.name))
    in
    let counters =
      Hashtbl.fold
        (fun _ (c : Counter.t) acc -> (c.Counter.name, c.Counter.v) :: acc)
        Counter.registry []
      |> List.sort (by_name fst)
    in
    let gauges =
      Hashtbl.fold
        (fun _ (g : Gauge.t) acc ->
           if g.Gauge.touched then (g.Gauge.name, g.Gauge.v) :: acc else acc)
        Gauge.registry []
      |> List.sort (by_name fst)
    in
    let histograms =
      Hashtbl.fold
        (fun _ (h : Histo.t) acc ->
           if Histo.total h = 0 then acc
           else
             { name = h.Histo.name; bounds = Array.copy h.Histo.bounds;
               counts = Array.copy h.Histo.counts; sum = h.Histo.sum }
             :: acc)
        Histo.registry []
      |> List.sort (by_name (fun (h : histogram) -> h.name))
    in
    { spans; counters; gauges; histograms }

  let is_empty t =
    t.spans = []
    && t.gauges = []
    && t.histograms = []
    && List.for_all (fun (_, v) -> v = 0) t.counters

  let span t name = List.find_opt (fun (s : span) -> s.name = name) t.spans
  let counter t name = List.assoc_opt name t.counters
  let gauge t name = List.assoc_opt name t.gauges

  let pp fmt t =
    let open Format in
    fprintf fmt "@[<v>";
    if t.spans <> [] then begin
      fprintf fmt "spans (calls, total s, max s):@,";
      List.iter
        (fun s ->
           fprintf fmt "  %s%-*s %6d  %9.4f  %9.4f@,"
             (String.make (2 * s.depth) ' ')
             (max 1 (30 - (2 * s.depth)))
             s.name s.count s.total_s s.max_s)
        t.spans
    end;
    if t.counters <> [] then begin
      fprintf fmt "counters:@,";
      List.iter (fun (n, v) -> fprintf fmt "  %-32s %10d@," n v) t.counters
    end;
    if t.gauges <> [] then begin
      fprintf fmt "gauges:@,";
      List.iter (fun (n, v) -> fprintf fmt "  %-32s %10g@," n v) t.gauges
    end;
    if t.histograms <> [] then begin
      fprintf fmt "histograms:@,";
      List.iter
        (fun h ->
           fprintf fmt "  %s (n=%d, sum=%g):@," h.name
             (Array.fold_left ( + ) 0 h.counts)
             h.sum;
           Array.iteri
             (fun i c ->
                if i < Array.length h.bounds then
                  fprintf fmt "    <= %-10g %8d@," h.bounds.(i) c
                else fprintf fmt "    >  %-10g %8d@," h.bounds.(i - 1) c)
             h.counts)
        t.histograms
    end;
    if is_empty t then fprintf fmt "(no telemetry recorded)@,";
    fprintf fmt "@]"

  let to_json t =
    let open Json in
    let of_int n = Num (float_of_int n) in
    let named value (n, v) = Obj [ ("name", Str n); ("value", value v) ] in
    Obj
      [
        ("version", Num 1.);
        ( "spans",
          List
            (List.map
               (fun (s : span) ->
                  Obj
                    [
                      ("name", Str s.name);
                      ("count", of_int s.count);
                      ("total_s", Num s.total_s);
                      ("max_s", Num s.max_s);
                      ("depth", of_int s.depth);
                    ])
               t.spans) );
        ("counters", List (List.map (named of_int) t.counters));
        ("gauges", List (List.map (named (fun x -> Num x)) t.gauges));
        ( "histograms",
          List
            (List.map
               (fun h ->
                  Obj
                    [
                      ("name", Str h.name);
                      ("bounds", List (List.map (fun b -> Num b) (Array.to_list h.bounds)));
                      ("counts", List (Array.to_list (Array.map of_int h.counts)));
                      ("sum", Num h.sum);
                    ])
               t.histograms) );
      ]

  let of_json root =
    let open Json in
    let exception Bad of string in
    let fail msg = raise (Bad msg) in
    let field name v =
      match mem name v with
      | Some x -> x
      | None -> fail (Printf.sprintf "missing field %S" name)
    in
    let str = function Str s -> s | _ -> fail "expected string" in
    (* Non-finite floats print as null (Json.to_string); read them back
       as nan. Int fields have no such spelling and reject null. *)
    let num = function Num x -> x | Null -> Float.nan | _ -> fail "expected number" in
    let int = function
      | Num x when Float.is_integer x -> int_of_float x
      | _ -> fail "expected integer"
    in
    let arr f = function List xs -> List.map f xs | _ -> fail "expected array" in
    let named value v =
      let name = str (field "name" v) in
      (name, value (field "value" v))
    in
    try
      let version = int (field "version" root) in
      if version <> 1 then fail (Printf.sprintf "unsupported version %d" version);
      let spans =
        arr
          (fun v ->
             let name = str (field "name" v) in
             let count = int (field "count" v) in
             let total_s = num (field "total_s" v) in
             let max_s = num (field "max_s" v) in
             let depth = int (field "depth" v) in
             { name; count; total_s; max_s; depth })
          (field "spans" root)
      in
      let counters = arr (named int) (field "counters" root) in
      let gauges = arr (named num) (field "gauges" root) in
      let histograms =
        arr
          (fun v ->
             let name = str (field "name" v) in
             let bounds = Array.of_list (arr num (field "bounds" v)) in
             let counts = Array.of_list (arr int (field "counts" v)) in
             let sum = num (field "sum" v) in
             if Array.length counts <> Array.length bounds + 1 then
               fail "histogram counts/bounds length mismatch";
             { name; bounds; counts; sum })
          (field "histograms" root)
      in
      Ok { spans; counters; gauges; histograms }
    with Bad msg -> Error ("Obs.Report.of_json: " ^ msg)

  let write_file path t =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
         output_string oc (Json.to_string (to_json t));
         output_char oc '\n')
end

(* The registered metric-name universe, for the doc-consistency gate
   (test/check_docs.ml): every name here must appear in docs/METRICS.md. *)
let registered () =
  let names = ref [] in
  Hashtbl.iter (fun name _ -> names := name :: !names) Counter.registry;
  Hashtbl.iter (fun name _ -> names := name :: !names) Gauge.registry;
  Hashtbl.iter (fun name _ -> names := name :: !names) Histo.registry;
  List.sort_uniq String.compare !names
