(* Known-clean fixture: bench provenance.
   The document goes through Run_meta.envelope, the one writer of the
   experiment header and its provenance, and so does the contents of a
   raw BENCH_*.json writer. *)

let document name rows = Run_meta.envelope ~experiment:name [ ("rows", rows) ]

let enveloped_writer name =
  let oc = open_out "BENCH_fixture.json" in
  output_string oc (Run_meta.envelope ~experiment:name []);
  close_out oc
