(** Deterministic pseudo-random number generation.

    All randomized components of the library thread an explicit [Rng.t]
    so that every experiment is reproducible from a single integer seed.
    The generator is xoshiro256**, seeded through splitmix64 as its
    authors recommend. *)

type t
(** Mutable generator state.

    A [t] is {b single-stream}: it must only be advanced from one
    domain (or pool task) at a time. Concurrent draws from a shared
    state race on the four state words and destroy reproducibility.
    Give each parallel chain its own stream with {!split} (the
    [bose_par] call sites assert pairwise-distinct states in dev
    builds, and the lint engine flags shared states as BH1001). *)

val create : int -> t
(** [create seed] builds a generator from an integer seed. Two generators
    built from the same seed produce identical streams. *)

val copy : t -> t
(** Independent copy of the current state. *)

val split : t -> int -> t array
(** [split rng n] derives [n] fresh generators from [rng], advancing
    [rng] by exactly [n] raw draws. Children are keyed by consecutive
    parent draws in index order, so for a fixed parent state the
    resulting streams are a deterministic function of [n] alone —
    the contract parallel samplers rely on to make chain [i]'s output
    independent of how chains are scheduled across domains. Streams of
    the parent and every child are statistically independent
    (splitmix64-seeded, as {!create}). *)

val of_key : int64 -> t
(** [of_key k] builds a generator from a full 64-bit key (splitmix64
    expansion, the [int]-seeded {!create} generalized). Used to derive
    content-keyed streams, e.g. one stream per batch-compile job keyed
    by the job's fingerprint. *)

val same : t -> t -> bool
(** Physical identity of generator states: [same a b] is [true] iff
    advancing [a] advances [b]. The aliasing predicate behind the
    BH1001 lint diagnostic — two pool tasks handed [same] states race
    on one stream. [copy a] is never [same] as [a]. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float -> float
(** [float rng bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val uniform : t -> float
(** Uniform in [\[0, 1)]. *)

val int : t -> int -> int
(** [int rng bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val bool : t -> bool
(** Fair coin flip. *)

val gaussian : t -> float
(** Standard normal deviate (Box-Muller). *)

val gaussian_pair : t -> float * float
(** Two independent standard normal deviates. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val choose_weighted : t -> float array -> int
(** [choose_weighted rng w] samples an index with probability proportional
    to [w.(i)]. Weights must be non-negative with a positive sum.
    @raise Invalid_argument on an all-zero or negative weight vector. *)

val sample_without_replacement : t -> float array -> int -> int list
(** [sample_without_replacement rng w m] draws [m] distinct indices, each
    round proportionally to the remaining weights. Indices with zero weight
    are drawn only after all positive-weight indices are exhausted. It is
    {!es_keys} followed by the first [m] entries of {!es_order}.
    @raise Invalid_argument if [m] exceeds the number of indices or a
    weight is negative. *)

val es_keys : t -> float array -> keys:float array -> ties:float array -> unit
(** [es_keys rng w ~keys ~ties] draws the Efraimidis–Spirakis key of
    every index, in index order: a uniform u, then a uniform tie-break,
    with key log(max u 1e-300)/w{_i} (−∞ for a zero weight). The [m]
    largest (key, tie) pairs are a weighted sample of [m] indices
    without replacement.
    @raise Invalid_argument on a negative weight (before any draw) or
    arrays of different lengths. *)

val es_order : keys:float array -> ties:float array -> int array
(** Indices by descending (key, tie), pairs compared with [compare];
    the order among exactly equal pairs is that of the stdlib
    [Array.sort], which {!sample_without_replacement} inherits. *)
