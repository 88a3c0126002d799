(* Rule: bench provenance.

   Every BENCH_*.json this repo emits carries the PR-4 provenance
   envelope: a "schema_version" field and the run block
   (git_rev/seed/timestamp).  The A/B harness refuses files without it,
   so a writer that forgets the envelope produces benchmarks that cannot
   be regression-gated.  [Run_meta.envelope] is the one writer of that
   envelope.  Statically:

   - a function that emits an "experiment" header key by hand must, in
     the same function, emit "schema_version" and call
     [Run_meta.envelope];
   - a function that opens a literal BENCH_*.json for writing must call
     [Run_meta.envelope] for its contents. *)

(* The trigger is the quote-and-colon form a JSON builder emits for the
   experiment header key — diagnostics that merely mention the quoted
   key (the A/B validator's error strings) must not trip it.  Built by
   concatenation so machlint does not flag its own source. *)
let experiment_needle = "\"" ^ "experiment" ^ "\":"
let schema_needle = "schema_version"

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
  at 0

let envelope_targets = [ "Run_meta.envelope" ]

let path_is_open_out head =
  match Lint_ast.path_of_expr head with
  | Some p -> Lint_ast.last_of p = "open_out"
  | None -> false

let bench_literal s =
  String.length s > 6
  && String.sub s 0 6 = "BENCH_"
  && Filename.check_suffix s ".json"

let check (g : Lint_graph.t) =
  let findings = ref [] in
  Lint_graph.iter_fns g (fun fn ->
      let strings = Lint_ast.strings_of_expr fn.Lint_graph.fn_body in
      let has_experiment =
        List.exists (fun (s, _) -> contains ~needle:experiment_needle s) strings
      and has_schema =
        List.exists (fun (s, _) -> contains ~needle:schema_needle s) strings
      in
      let calls_envelope =
        List.exists
          (fun c -> Lint_graph.call_matches c envelope_targets)
          fn.Lint_graph.fn_calls
      in
      if has_experiment then (
        if not has_schema then
          findings :=
            Lint_report.make ~rule:Lint_report.rule_provenance
              ~loc:fn.Lint_graph.fn_loc
              (Printf.sprintf
                 "%s builds a BENCH experiment header without a \
                  schema_version field: bench ab will reject the file"
                 fn.Lint_graph.fn_key)
            :: !findings;
        if not calls_envelope then
          findings :=
            Lint_report.make ~rule:Lint_report.rule_provenance
              ~loc:fn.Lint_graph.fn_loc
              (Printf.sprintf
                 "%s builds a BENCH experiment header by hand: only \
                  Run_meta.envelope writes the provenance \
                  (git_rev/seed/timestamp)"
                 fn.Lint_graph.fn_key)
            :: !findings);
      (* open_out "BENCH_x.json" must carry the envelope *)
      let writes_bench =
        let found = ref None in
        let it =
          {
            Ast_iterator.default_iterator with
            expr =
              (fun it e ->
                (match e.Parsetree.pexp_desc with
                | Parsetree.Pexp_apply (head, (_, arg) :: _)
                  when path_is_open_out head -> (
                    match arg.Parsetree.pexp_desc with
                    | Parsetree.Pexp_constant
                        (Parsetree.Pconst_string (s, _, _))
                      when bench_literal s ->
                        if !found = None then
                          found := Some (s, e.Parsetree.pexp_loc)
                    | _ -> ())
                | _ -> ());
                Ast_iterator.default_iterator.expr it e);
          }
        in
        it.expr it fn.Lint_graph.fn_body;
        !found
      in
      match writes_bench with
      | Some (name, loc) when not calls_envelope ->
          findings :=
            Lint_report.make ~rule:Lint_report.rule_provenance ~loc
              (Printf.sprintf
                 "%s is written without provenance: route the contents \
                  through Run_meta.envelope"
                 name)
            :: !findings
      | _ -> ());
  List.rev !findings
