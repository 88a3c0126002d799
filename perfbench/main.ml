(* The repository benchmark.  See README.md for the workloads, the
   metrics and the clocks.

     main.exe --workload <os2-apps|fs-sync|net-ingest> --seed <n>
              --seconds <s> --trace <0|1> [--spans <file>]

   One iteration runs the workload's fixed amount of work on freshly
   booted systems.  Iterations repeat until [--seconds] have passed (at
   least three), and every one must reproduce the first iteration's
   simulated numbers exactly.  Host times are the medians over the
   iterations.  With [--trace 1] iterations alternate untraced and
   traced; both must agree, and the per-layer metrics are printed.  The
   last line of output is the JSON result. *)

open Common

(* ---- metric names, in BENCHMARK.json order ---------------------------- *)

let e2e_names =
  [
    ("sim_elapsed_mcycles", "Mcycles");
    ("wpos_native_ratio", "ratio");
    ("max_rate_at_slo", ops_unit);
    ("lat_p50_kcycles", "kcycles");
    ("lat_p99_kcycles", "kcycles");
    ("host_s", "s");
    ("setup_s", "s");
    ("host_heap_mb", "MB");
  ]

let host_layers =
  [
    "machine"; "mach"; "services"; "fileserver"; "netserver"; "personalities";
    "monolithic"; "core";
  ]

let per_layer_names =
  [
    ("machine.icache_miss_rate", "ratio");
    ("machine.dcache_miss_rate", "ratio");
    ("machine.tlb_misses", "count");
    ("machine.cpi", "cycles/instr");
    ("machine.instructions", "count");
    ("machine.busy_mcycles", "Mcycles");
    ("machine.idle_mcycles", "Mcycles");
    ("machine.coherence_misses", "count");
    ("machine.bus_stall_cycles", "cycles");
    ("machine.bus_cycles", "cycles");
    ("machine.ipis", "count");
    ("machine.sim_minstr_per_host_s", "Minstr/s");
    ("drivers.disk_requests", "count");
    ("drivers.interrupts", "count");
    ("mach.steals", "count");
    ("mach.xmsgs", "count");
    ("mach.as_switches", "count");
    ("mach.page_faults", "count");
    ("mach.reply_cache_hit_rate", "ratio");
    ("fileserver.journal_writes", "count");
    ("fileserver.bcache_writebacks", "count");
    ("fileserver.rpc_tax_kcycles", "kcycles");
    ("fileserver.rpc_factor", "ratio");
    ("fileserver.open.kcycles", "kcycles");
    ("fileserver.read.kcycles", "kcycles");
    ("fileserver.write.kcycles", "kcycles");
    ("fileserver.close.kcycles", "kcycles");
    ("fileserver.sync.kcycles", "kcycles");
    ("fileserver.requests", "count");
    ("fileserver.bcache_hit_rate", "ratio");
    ("fileserver.ncache_hit_rate", "ratio");
  ]
  @ List.concat_map
      (fun op ->
        [
          (Printf.sprintf "personalities.%s.kcycles_wpos" op, "kcycles");
          (Printf.sprintf "personalities.%s.kcycles_native" op, "kcycles");
        ])
      [ "f_open"; "f_read"; "f_write"; "f_close"; "f_unlink"; "q_post"; "q_wait"; "alloc" ]
  @ [
      ("netserver.ring_p50_kcycles", "kcycles");
      ("netserver.ring_p99_kcycles", "kcycles");
      ("netserver.packets", "count");
      ("netserver.batch_size", "packets/batch");
      ("netserver.shard_fairness", "max/mean");
      ("netserver.backlog_peak", "datagrams");
      ("netserver.drops", "count");
      ("netserver.gen_lag_kcycles", "kcycles");
      ("finegrain.vcalls_per_packet", "vcalls/packet");
      ("finegrain.runtime_bytes", "bytes");
    ]
  @ List.map (fun l -> (l ^ ".host_s", "s")) host_layers
  @ [
      ("failed_frac", "ratio");
      ("lat_samples", "count");
      ("trace_overhead_s", "s");
    ]

(* ---- workloads -------------------------------------------------------- *)

(* Each workload, and the digest of the inputs it generates from a seed
   ([None]: the workload takes no seeded input). *)
let digest x = Digest.to_hex (Digest.string (Marshal.to_string x []))

let workloads =
  [
    ("os2-apps", ((fun ~seed:_ -> Os2_apps.run ()), None));
    ("fs-sync", (Fs_sync.run, Some (fun seed -> digest (Fs_sync.generate ~seed))));
    ( "net-ingest",
      ( Net_ingest.run,
        Some
          (fun seed ->
            digest
              (List.map
                 (fun rate -> Net_ingest.generate ~seed ~rate ~datagrams:Net_ingest.datagrams)
                 Net_ingest.ladder)) ) );
  ]

(* ---- output ----------------------------------------------------------- *)

(* A non-finite value has already failed the run; it prints as 0 so the
   result line stays valid JSON. *)
let json_number v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit_, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

(* ---- iterations -------------------------------------------------------- *)

type iteration = {
  outcome : outcome;
  setup_s : float;
  timed_s : float;
  heap_mb : float;  (* peak major heap of the iteration *)
  layer_host : (string * float) list;  (* traced only *)
  spans : int;  (* spans written, traced only *)
}

let iterate ~tracing ~spans run ~seed =
  Trace.reset ();
  Trace.enabled := tracing;
  let outcome = run ~seed in
  Trace.enabled := false;
  if tracing && spans <> "" then Trace.write spans;
  {
    outcome;
    setup_s = !Trace.setup_s;
    timed_s = !Trace.timed_s;
    heap_mb = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6;
    layer_host = (if tracing then Trace.layer_host () else []);
    spans = (if tracing then List.length !Trace.spans else 0);
  }

(* Run [f] in a child process and return its result.  Every booted
   machine stays reachable from the program's global per-instance lists
   (Extfs keeps its journal counters and recovery reports per block
   cache), about 22 MB of disk image each, so iterations in one process
   would grow the heap without bound.  A child per iteration returns all
   of it to the host. *)
let in_child f =
  flush stdout;
  flush stderr;
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      (* the child never returns into the parent's code *)
      (try
         Unix.close r;
         let oc = Unix.out_channel_of_descr w in
         let result = try Ok (f ()) with e -> Error (Printexc.to_string e) in
         Marshal.to_channel oc (result : (iteration, string) result) [];
         close_out oc
       with _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let result =
        try (Marshal.from_channel ic : (iteration, string) result)
        with End_of_file -> Error "child process died"
      in
      close_in ic;
      ignore (Unix.waitpid [] pid : int * Unix.process_status);
      result

let usage () =
  prerr_endline
    "usage: main.exe --workload <os2-apps|fs-sync|net-ingest> --seed <n> --seconds <s> \
     --trace <0|1> [--spans <file>]";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let spans = ref "" in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; parse rest
    | "--trace" :: (("0" | "1") as v) :: rest -> trace := Some (v = "1"); parse rest
    | "--spans" :: v :: rest -> spans := v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let run, digest =
    match List.assoc_opt !workload workloads with Some w -> w | None -> usage ()
  in
  let seed, seconds, traced =
    match (!seed, !seconds, !trace) with
    | Some s, Some t, Some tr when t > 0.0 -> (s, t, tr)
    | _ -> usage ()
  in
  let problems = ref [] in
  let problem s = problems := s :: !problems in
  (* seed handling: the generator must depend on the seed *)
  (match digest with
  | Some d ->
      let here = d seed in
      Printf.printf "inputs: seed %d, digest %s\n" seed here;
      if here = d (seed + 1) then problem "seed ignored: seeds n and n+1 give the same inputs"
  | None -> Printf.printf "inputs: fixed (the Table 1 rows take no seed)\n");
  let start = Unix.gettimeofday () in
  let first = ref None and failed_iterations = ref 0 in
  let untraced_host = ref [] and traced_host = ref [] and setups = ref [] in
  let layer_host = ref [] and heaps = ref [] and spans_written = ref 0 in
  let iteration = ref 0 in
  let sim_values o = List.map (fun m -> (m.name, m.value)) (o.e2e @ o.layer) in
  while
    !failed_iterations = 0
    && (!iteration < 3
       || (traced && !traced_host = [])
       || Unix.gettimeofday () -. start < seconds)
  do
    let tracing = traced && !iteration mod 2 = 1 in
    (match in_child (fun () -> iterate ~tracing ~spans:!spans run ~seed) with
    | Error e ->
        incr failed_iterations;
        problem (Printf.sprintf "iteration %d failed: %s" !iteration e)
    | Ok it ->
        (match !first with
        | None -> first := Some it.outcome
        | Some f ->
            if sim_values f <> sim_values it.outcome || f.problems <> it.outcome.problems
            then
              problem
                (Printf.sprintf
                   "iteration %d (%s) did not reproduce the simulated numbers and checks \
                    of iteration 0"
                   !iteration (if tracing then "traced" else "untraced")));
        setups := it.setup_s :: !setups;
        heaps := it.heap_mb :: !heaps;
        if tracing then begin
          traced_host := it.timed_s :: !traced_host;
          layer_host := it.layer_host :: !layer_host;
          spans_written := it.spans
        end
        else untraced_host := it.timed_s :: !untraced_host);
    incr iteration
  done;
  let o =
    match !first with
    | Some o -> o
    | None ->
        List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) (List.rev !problems);
        exit 1
  in
  List.iter problem (List.rev o.problems);
  let host_s = Stat.median_float !untraced_host in
  let setup_s = Stat.median_float !setups in
  let heap_mb = Stat.median_float !heaps in
  let sim = o.e2e @ o.layer in
  List.iter
    (fun m ->
      if not (Float.is_finite m.value) then problem (m.name ^ " is not a finite number");
      if not (List.mem_assoc m.name e2e_names || List.mem_assoc m.name per_layer_names) then
        problem (m.name ^ " is not a declared metric"))
    sim;
  let value name =
    match List.find_opt (fun m -> m.name = name) sim with Some m -> Some m.value | None -> None
  in
  let e2e =
    List.map
      (fun (name, unit_) ->
        let v =
          match name with
          | "host_s" -> host_s
          | "setup_s" -> setup_s
          | "host_heap_mb" -> heap_mb
          | _ -> (
              match value name with
              | Some v -> v
              | None ->
                  problem (name ^ " was not measured");
                  0.0)
        in
        (name, unit_, v))
      e2e_names
  in
  let layer =
    if not traced then []
    else
      let host_of l =
        Stat.median_float
          (List.map (fun t -> Option.value ~default:0.0 (List.assoc_opt l t)) !layer_host)
      in
      List.map
        (fun (name, unit_) ->
          let v =
            match name with
            | "machine.sim_minstr_per_host_s" ->
                float_of_int o.instructions /. 1e6 /. host_s
            | "failed_frac" -> rate o.failed o.attempted
            | "trace_overhead_s" -> Stat.median_float !traced_host -. host_s
            | _ when String.ends_with ~suffix:".host_s" name ->
                host_of (String.sub name 0 (String.length name - 7))
            | _ -> Option.value ~default:0.0 (value name)
          in
          (name, unit_, v))
        per_layer_names
  in
  (* the report *)
  Printf.printf "\n%s, seed %d: %d iterations in %.1f s (%d traced)\n" !workload seed !iteration
    (Unix.gettimeofday () -. start) (List.length !traced_host);
  List.iter print_endline o.notes;
  print_endline
    "Simulated numbers other than the paper anchors above are unvalidated model numbers.";
  let show (name, unit_, v) = Printf.printf "  %-40s %16.6g %s\n" name v unit_ in
  print_endline "end to end:";
  List.iter show e2e;
  Printf.printf "  (latency percentiles over %.0f samples)\n"
    (Option.value ~default:0.0 (value "lat_samples"));
  if traced then begin
    print_endline "per layer (0 where the workload does not reach the layer):";
    List.iter show layer
  end;
  Printf.printf "attempted %d, failed %d (failed_frac %g)\n" o.attempted o.failed
    (rate o.failed o.attempted);
  if !spans_written > 0 then
    Printf.printf "spans: %d written to %s\n" !spans_written !spans;
  let problems = List.rev !problems in
  if problems = [] then print_endline "checks: all passed"
  else List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) problems;
  let correct = problems = [] && o.failed = 0 in
  print_result ~correct ~attempted:o.attempted ~failed:o.failed
    (if traced then layer else e2e);
  if not correct then exit 1
