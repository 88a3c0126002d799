(* Known-clean fixture: bench provenance.
   The document goes through Run_meta.envelope, the one writer of the
   experiment header and its provenance; one raw writer routes its
   contents through a to_json builder, the other through the envelope. *)

let document name rows = Run_meta.envelope ~experiment:name [ ("rows", rows) ]

let routed_writer result =
  let oc = open_out "BENCH_fixture.json" in
  output_string oc (result_to_json result);
  close_out oc

let enveloped_writer name =
  let oc = open_out "BENCH_fixture.json" in
  output_string oc (Run_meta.envelope ~experiment:name []);
  close_out oc
