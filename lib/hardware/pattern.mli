(** Elimination pattern templates (paper §IV).

    A pattern is a spanning tree over qumodes whose nodes are labeled by
    breadth-first search from the 'start point'. Labels double as the
    column indices of the interferometer unitary: the qumode with label
    [j] holds column [j]. The elimination of matrix row [k-1]
    (0-indexed) runs over the [k] lowest-labeled qumodes, accumulates
    all amplitude into the qumode labeled [k-1] (the stage root, always
    a leaf of the remaining tree), and removes it; repeating from
    [k = N] down to [2] yields the N(N-1)/2 rotations of Eq. (1).

    The baseline pattern of Reck/Clements is the special case of a chain.
    Bosehedral's template is a main path with leaf branches, embedded in
    the 2-D lattice by {!Embedding.zigzag}. *)

type t

val size : t -> int

val of_tree :
  ?main_path:int list ->
  ?sites:int array ->
  n:int ->
  edges:(int * int) list ->
  start:int ->
  unit ->
  t
(** [of_tree ~n ~edges ~start ()] BFS-relabels the tree given by [edges]
    over nodes [0..n-1] starting from [start]. [main_path] marks nodes
    (in original ids) belonging to the main amplitude-accumulation path;
    [sites] gives each original node's physical flat site index.
    @raise Invalid_argument if [edges] do not form a spanning tree. *)

val chain : int -> t
(** The baseline chain template on [n] qumodes (paper Fig. 4, top). *)

val neighbors : t -> int -> int list
(** Tree neighbors of a label, increasing order. *)

val parent : t -> int -> int option
(** BFS parent (the unique lower-labeled neighbor); [None] for label 0. *)

val on_main_path : t -> int -> bool

val site : t -> int -> int option
(** Physical flat site index of a label, when the pattern was embedded. *)

val main_path_labels : t -> int list
(** Labels on the main path, increasing. *)

val branch_regions : t -> int list list
(** Column regions for the mapping optimization (paper §V-D): first the
    main-path labels, then one region per branch subtree, ordered by the
    main-path position they hang off. Regions partition [0..size-1]. *)

val restrict : t -> int -> t
(** [restrict t k] keeps the [k] lowest labels — the paper's sub-pattern
    selection (§IV-C). @raise Invalid_argument if [k] is out of
    [1..size]. *)

val schedule : t -> stage:int -> (int * int) list
(** [(m, n)] elimination pairs, in dependency order, for the stage with
    [stage] active qumodes: entry of column [m] is zeroed against column
    [n] on matrix row [stage - 1]; the stage root is label [stage - 1].
    Children are visited largest-subtree-first so branch eliminations
    meet an already-accumulated parent amplitude. *)

val full_schedule : t -> (int * (int * int) list) list
(** [(row, eliminations)] for rows [size-1] down to [1], in elimination
    order. Total pair count is N(N-1)/2, built in O(N²) time. *)

val validate : t -> (string, string) result
(** Structural self-check; [Error] describes the first violation. *)

val pp : Format.formatter -> t -> unit
