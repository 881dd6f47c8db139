(* xoshiro256** with splitmix64 seeding, after Blackman & Vigna. The
   four state words live unboxed in 32 bytes: mutable int64 record
   fields would box every word stored, four allocations per draw. The
   state never leaves the process and every [t] is 32 bytes, so the
   words are read native-endian without bounds checks. *)

type t = Bytes.t

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] word t i = get64u t (8 * i)
let[@inline] set_word t i v = set64u t (8 * i) v

let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_key key =
  let state = ref key in
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    set_word t i (splitmix64 state)
  done;
  t

let create seed = of_key (Int64.of_int seed)

let copy = Bytes.copy

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] bits64 t =
  let open Int64 in
  let s0 = word t 0 and s1 = word t 1 and s2 = word t 2 and s3 = word t 3 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  set_word t 1 (logxor s1 s2);
  set_word t 0 (logxor s0 s3);
  set_word t 2 (logxor s2 (shift_left s1 17));
  set_word t 3 (rotl s3 45);
  result

let split t n =
  if n < 0 then invalid_arg "Rng.split: negative stream count";
  (* Children are derived in index order from consecutive parent draws,
     so the stream assignment is a pure function of the parent state —
     never of evaluation order. *)
  let children = Array.make n t in
  for i = 0 to n - 1 do
    children.(i) <- of_key (bits64 t)
  done;
  children

let same a b = a == b

(* Take the top 53 bits for a uniform double in [0, 1). *)
let[@inline] uniform t =
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits *. 0x1p-53

let float t bound =
  if not (bound > 0.) then invalid_arg "Rng.float: bound must be positive";
  uniform t *. bound

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let bound64 = Int64.of_int bound in
  let mask =
    let rec widen m = if Int64.unsigned_compare m bound64 >= 0 then m else widen Int64.(logor (shift_left m 1) 1L) in
    widen 1L
  in
  let rec draw () =
    let v = Int64.logand (bits64 t) mask in
    if Int64.unsigned_compare v bound64 < 0 then Int64.to_int v else draw ()
  in
  draw ()

let bool t = Int64.compare (Int64.logand (bits64 t) 1L) 0L <> 0

let gaussian_pair t =
  (* Box-Muller; guard against log 0. *)
  let rec nonzero () =
    let u = uniform t in
    if u > 0. then u else nonzero ()
  in
  let u1 = nonzero () and u2 = uniform t in
  let r = sqrt (-2. *. log u1) and theta = 2. *. Float.pi *. u2 in
  (r *. cos theta, r *. sin theta)

let gaussian t = fst (gaussian_pair t)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose_weighted t w =
  let total = Array.fold_left (fun acc x ->
      if x < 0. then invalid_arg "Rng.choose_weighted: negative weight";
      acc +. x) 0. w
  in
  if total <= 0. then invalid_arg "Rng.choose_weighted: weights sum to zero";
  let target = float t total in
  let n = Array.length w in
  let rec scan i acc =
    if i = n - 1 then i
    else
      let acc = acc +. w.(i) in
      if target < acc then i else scan (i + 1) acc
  in
  scan 0 0.

(* Efraimidis-Spirakis: drawing the m largest keys log(u_i)/w_i is
   distributionally identical to sequential weighted sampling without
   replacement, and runs in O(n log n) instead of O(m·n). Zero-weight
   indices get key -∞ with a uniform tie-break, so they are only chosen
   once every positive weight is exhausted. *)
let es_keys t w ~keys ~ties =
  let n = Array.length w in
  if Array.length keys <> n || Array.length ties <> n then
    invalid_arg "Rng.es_keys: key arrays do not match the weights";
  Array.iter (fun x -> if x < 0. then invalid_arg "Rng.es_keys: negative weight") w;
  for i = 0 to n - 1 do
    let u = uniform t in
    let tie = uniform t in
    keys.(i) <- (if w.(i) > 0. then log (Float.max u 1e-300) /. w.(i) else neg_infinity);
    ties.(i) <- tie
  done

let es_order ~keys ~ties =
  let ranked = Array.mapi (fun i key -> (key, ties.(i), i)) keys in
  Array.sort (fun (ka, ta, _) (kb, tb, _) -> compare (kb, tb) (ka, ta)) ranked;
  Array.map (fun (_, _, i) -> i) ranked

let sample_without_replacement t w m =
  let n = Array.length w in
  if m > n then invalid_arg "Rng.sample_without_replacement: m > n";
  let keys = Array.make n 0. and ties = Array.make n 0. in
  es_keys t w ~keys ~ties;
  let order = es_order ~keys ~ties in
  List.init m (fun r -> order.(r))
