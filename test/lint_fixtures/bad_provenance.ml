(* Known-bad fixture: bench provenance.
   A BENCH writer that emits the experiment header with no
   schema_version and no Run_meta block, a raw open_out of a
   BENCH_*.json that routes through no builder, and one that routes
   through a to_json builder instead of the envelope. *)

let bare_header oc name =
  Printf.fprintf oc "{ \"experiment\": %S }\n" name

let raw_writer rows =
  let oc = open_out "BENCH_fixture.json" in
  List.iter (fun r -> Printf.fprintf oc "%d\n" r) rows;
  close_out oc

let routed_writer result =
  let oc = open_out "BENCH_fixture.json" in
  output_string oc (result_to_json result);
  close_out oc
