type t = {
  size : int;
  neighbors : int list array;  (* tree adjacency in label space *)
  main : bool array;
  sites : int array option;  (* physical flat site per label *)
  main_order : int list;  (* main-path labels in path order from the start point *)
}

let size t = t.size

let bfs_labels n adjacency start =
  let label = Array.make n (-1) in
  let queue = Queue.create () in
  Queue.add start queue;
  label.(start) <- 0;
  let next = ref 1 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    List.iter
      (fun w ->
         if label.(w) < 0 then begin
           label.(w) <- !next;
           incr next;
           Queue.add w queue
         end)
      (List.sort compare adjacency.(v))
  done;
  if !next <> n then invalid_arg "Pattern.of_tree: graph is not connected";
  label

(* Main-path order: walk the path starting from the start node, always
   stepping to the unvisited main neighbor. *)
let trace_main_path neighbors main start =
  if not main.(start) then []
  else begin
    let visited = Array.make (Array.length main) false in
    let rec walk v acc =
      visited.(v) <- true;
      let next =
        List.find_opt (fun w -> main.(w) && not visited.(w)) neighbors.(v)
      in
      match next with None -> List.rev (v :: acc) | Some w -> walk w (v :: acc)
    in
    walk start []
  end

let of_tree ?main_path ?sites ~n ~edges ~start () =
  if n <= 0 then invalid_arg "Pattern.of_tree: empty pattern";
  if List.length edges <> n - 1 then invalid_arg "Pattern.of_tree: a tree needs n-1 edges";
  let adjacency = Array.make n [] in
  List.iter
    (fun (a, b) ->
       if a < 0 || a >= n || b < 0 || b >= n || a = b then
         invalid_arg "Pattern.of_tree: bad edge";
       adjacency.(a) <- b :: adjacency.(a);
       adjacency.(b) <- a :: adjacency.(b))
    edges;
  let label = bfs_labels n adjacency start in
  let neighbors = Array.make n [] in
  List.iter
    (fun (a, b) ->
       let la = label.(a) and lb = label.(b) in
       neighbors.(la) <- lb :: neighbors.(la);
       neighbors.(lb) <- la :: neighbors.(lb))
    edges;
  Array.iteri (fun i ns -> neighbors.(i) <- List.sort compare ns) neighbors;
  let main = Array.make n false in
  (match main_path with
   | None -> Array.fill main 0 n true
   | Some nodes -> List.iter (fun v -> main.(label.(v)) <- true) nodes);
  let relabeled_sites =
    Option.map
      (fun s ->
         let out = Array.make n 0 in
         Array.iteri (fun node site -> out.(label.(node)) <- site) s;
         out)
      sites
  in
  { size = n; neighbors; main; sites = relabeled_sites; main_order = trace_main_path neighbors main 0 }

let chain n =
  of_tree ~n ~edges:(List.init (n - 1) (fun i -> (i, i + 1))) ~start:0 ()

let neighbors t v = t.neighbors.(v)

let parent t v =
  if v = 0 then None else List.find_opt (fun w -> w < v) t.neighbors.(v)

let on_main_path t v = t.main.(v)

let site t v = Option.map (fun s -> s.(v)) t.sites

let main_path_labels t =
  List.filter (fun v -> t.main.(v)) (List.init t.size (fun i -> i))

let branch_regions t =
  let visited = Array.make t.size false in
  List.iter (fun v -> visited.(v) <- true) (main_path_labels t);
  (* Collect the off-path subtree hanging from [root]. *)
  let rec subtree v =
    visited.(v) <- true;
    v :: List.concat_map (fun w -> if visited.(w) then [] else subtree w) t.neighbors.(v)
  in
  let branches_of m =
    List.filter_map
      (fun w -> if t.main.(w) || visited.(w) then None else Some (List.sort compare (subtree w)))
      (List.sort compare t.neighbors.(m))
  in
  main_path_labels t :: List.concat_map branches_of t.main_order

let restrict t k =
  if k < 1 || k > t.size then invalid_arg "Pattern.restrict: size out of range";
  let neighbors = Array.init k (fun v -> List.filter (fun w -> w < k) t.neighbors.(v)) in
  let main = Array.init k (fun v -> t.main.(v)) in
  let sites = Option.map (fun s -> Array.sub s 0 k) t.sites in
  let main_order = List.filter (fun v -> v < k) t.main_order in
  { size = k; neighbors; main; sites; main_order }

(* Stage with [stage] active labels 0..stage-1, rooted at stage-1: emit
   (child, parent) edges in post-order, visiting larger subtrees first
   (ties by lower label). One DFS sizes every subtree of the rooted
   stage tree up front, so a stage costs O(stage) plus the child sorts
   and [full_schedule] O(N²). *)
let schedule t ~stage =
  if stage < 2 || stage > t.size then invalid_arg "Pattern.schedule: stage out of range";
  let root = stage - 1 in
  let children v from = List.filter (fun w -> w <> from && w < stage) t.neighbors.(v) in
  let size = Array.make stage 0 in
  let rec measure v from =
    let s = List.fold_left (fun acc w -> acc + measure w v) 1 (children v from) in
    size.(v) <- s;
    s
  in
  ignore (measure root (-1));
  let larger_first a b =
    let c = Int.compare size.(b) size.(a) in
    if c <> 0 then c else Int.compare a b
  in
  let out = ref [] in
  let rec visit v from =
    List.iter (fun w -> visit w v) (List.sort larger_first (children v from));
    if from >= 0 then out := (v, from) :: !out
  in
  visit root (-1);
  List.rev !out

let full_schedule t =
  List.filter_map
    (fun i ->
       let stage = t.size - i in
       if stage < 2 then None else Some (stage - 1, schedule t ~stage))
    (List.init (t.size - 1) (fun i -> i))

let validate t =
  let ( let* ) r f = Result.bind r f in
  let* () =
    let edge_count =
      Array.fold_left (fun acc ns -> acc + List.length ns) 0 t.neighbors / 2
    in
    if edge_count = t.size - 1 then Ok () else Error "edge count is not n-1"
  in
  let* () =
    (* Every non-zero label must have exactly one lower-labeled neighbor:
       this is what makes descending-label removal always remove a leaf. *)
    let bad = ref None in
    for v = 1 to t.size - 1 do
      let lower = List.length (List.filter (fun w -> w < v) t.neighbors.(v)) in
      if lower <> 1 && !bad = None then
        bad := Some (Printf.sprintf "label %d has %d lower-labeled neighbors" v lower)
    done;
    match !bad with None -> Ok () | Some msg -> Error msg
  in
  let* () =
    let regions = branch_regions t in
    let all = List.sort compare (List.concat regions) in
    if all = List.init t.size (fun i -> i) then Ok ()
    else Error "branch regions do not partition the labels"
  in
  Ok "ok"

let pp fmt t =
  Format.fprintf fmt "@[<v>pattern on %d qumodes (main path: %d)@," t.size
    (List.length (main_path_labels t));
  for v = 0 to t.size - 1 do
    Format.fprintf fmt "  %d%s -> [%a]@," v
      (if t.main.(v) then "*" else "")
      (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f " ") Format.pp_print_int)
      t.neighbors.(v)
  done;
  Format.fprintf fmt "@]"
