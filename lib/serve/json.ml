(* Kept only because perfbench/replica.ml names Bose_serve.Json. *)
include Bose_util.Json
