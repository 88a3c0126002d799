(* Rule: hot path.

   The machine model's per-line and per-transaction code runs for every
   simulated cycle.  On ints, [Stdlib.min]/[max] are ordinary
   polymorphic functions: each call goes through the runtime's generic
   comparison ([caml_greaterequal], [compare_val]) rather than one
   machine compare.  [Int.min]/[Int.max]/[Int.compare] do the same job
   monomorphically.  Statically, a bare or [Stdlib.]-qualified
   [compare], [min] or [max] is a finding

   - anywhere in lib/machine/*.ml, the machine model itself;
   - inside any binding marked [let[@machlint.hot] f = ...], for the
     hot code outside it (kernel path replay, dispatch). *)

let polymorphic = [ "compare"; "min"; "max" ]

let flagged path =
  match path with
  | [ f ] | [ "Stdlib"; f ] -> List.mem f polymorphic
  | _ -> false

let in_machine_model path =
  let dir = Filename.dirname path in
  Filename.basename dir = "machine"
  && Filename.basename (Filename.dirname dir) = "lib"

let is_hot (fn : Lint_graph.fn) =
  List.exists (fun (name, _) -> name = "machlint.hot") fn.Lint_graph.fn_attrs

let finding ~where (path, loc) =
  let name = String.concat "." path in
  Lint_report.make ~rule:Lint_report.rule_hotpath ~loc
    (Printf.sprintf
       "%s: polymorphic %s on the hot path goes through the runtime's \
        generic compare; use Int.%s"
       where name (Lint_ast.last_of path))

let polymorphic_uses iter_with =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.Parsetree.pexp_desc with
          | Parsetree.Pexp_ident { txt; loc } -> (
              match Lint_ast.flatten_lid txt with
              | Some path when flagged path -> acc := (path, loc) :: !acc
              | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  iter_with it;
  List.rev !acc

let check (sources : Lint_ast.source list) (g : Lint_graph.t) =
  let machine =
    List.concat_map
      (fun (src : Lint_ast.source) ->
        if in_machine_model src.Lint_ast.s_path then
          polymorphic_uses (fun it -> it.Ast_iterator.structure it src.Lint_ast.s_ast)
          |> List.map (finding ~where:src.Lint_ast.s_module)
        else [])
      sources
  in
  let marked = ref [] in
  Lint_graph.iter_fns g (fun fn ->
      let file = fn.Lint_graph.fn_loc.Location.loc_start.Lexing.pos_fname in
      if is_hot fn && not (in_machine_model file) then
        marked :=
          List.map
            (finding ~where:fn.Lint_graph.fn_key)
            (polymorphic_uses (fun it -> it.Ast_iterator.expr it fn.Lint_graph.fn_body))
          @ !marked);
  machine @ List.rev !marked
