module Obs = Bose_obs.Obs
module Lint = Bose_lint.Lint

type t = { passes : Pass.t list }

let make passes =
  (* A registry must be executable front to back: producers unique,
     every dependency produced by an earlier pass. *)
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (p : Pass.t) ->
       let same_name =
         List.filter (fun (q : Pass.t) -> q.Pass.name = p.Pass.name) passes
       in
       if List.length same_name > 1 then
         invalid_arg ("Pipeline.make: duplicate pass name " ^ p.Pass.name);
       List.iter
         (fun k ->
            if not (Hashtbl.mem seen k) then
              invalid_arg
                ("Pipeline.make: pass " ^ p.Pass.name ^ " depends on an artifact no \
                  earlier pass produces"))
         p.Pass.depends;
       if Hashtbl.mem seen p.Pass.produces then
         invalid_arg ("Pipeline.make: two passes produce the artifact of " ^ p.Pass.name);
       Hashtbl.add seen p.Pass.produces ())
    passes;
  { passes }

let default = make [ Pass.embed; Pass.map; Pass.decompose; Pass.dropout ]

let passes t = t.passes
let names t = List.map (fun (p : Pass.t) -> p.Pass.name) t.passes
let find t name = List.find_opt (fun (p : Pass.t) -> p.Pass.name = name) t.passes

(* Dependency names resolved against a pass list: kind -> the name of
   the pass in [among] producing it (absent when that pass is disabled
   — its artifact then comes from [skip], outside the pass system). *)
let dep_names among (p : Pass.t) =
  List.filter_map
    (fun k ->
       List.find_map
         (fun (q : Pass.t) -> if q.Pass.produces = k then Some q.Pass.name else None)
         among)
    p.Pass.depends

(* ------------------------------------------------------------------ *)
(* Execution.                                                          *)

type exec = { pass : string; elapsed_s : float }
type trace = exec list

let elapsed trace name =
  List.fold_left (fun acc e -> if e.pass = name then acc +. e.elapsed_s else acc) 0. trace

let check_disabled t disabled =
  List.iter
    (fun name ->
       match find t name with
       | None -> invalid_arg ("Pipeline.run: unknown pass " ^ name)
       | Some p ->
         if not (Pass.can_skip p) then
           invalid_arg ("Pipeline.run: pass " ^ name ^ " is mandatory and cannot be disabled"))
    disabled

let run ?(disabled = []) t ctx =
  check_disabled t disabled;
  let trace = ref [] in
  List.iter
    (fun (p : Pass.t) ->
       if List.mem p.Pass.name disabled then
         (* A disabled pass contributes its neutral artifact outside
            the pass system: no span, no trace row (the effective
            registry shrinks to match, see lint_trace). *)
         match p.Pass.skip with
         | Some skip -> Pass.store ctx (skip ctx)
         | None -> assert false
       else begin
         let t0 = Sys.time () in
         Obs.Span.with_ p.Pass.span (fun () -> Pass.store ctx (p.Pass.run ctx));
         trace := { pass = p.Pass.name; elapsed_s = Sys.time () -. t0 } :: !trace
       end)
    t.passes;
  List.rev !trace

let lint_trace ?(disabled = []) t trace =
  let effective =
    List.filter (fun (p : Pass.t) -> not (List.mem p.Pass.name disabled)) t.passes
  in
  {
    Lint.registered =
      List.map (fun (p : Pass.t) -> (p.Pass.name, dep_names effective p)) effective;
    executed = List.map (fun e -> e.pass) trace;
  }
