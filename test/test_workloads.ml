(* Tests for the workload layer: the API adapters drive both systems and
   the microbenchmarks land in the paper's bands. *)

let test_api_parity_monolithic () =
  let m = Machine.create Machine.Config.pentium_133 in
  let api = Workloads.Api.of_monolithic (Monolithic.boot m ~fs_format:`Hpfs ()) in
  let read_back = ref (-1) in
  api.Workloads.Api.spawn ~name:"t" (fun api ->
      let open Workloads.Api in
      match api.f_open ~path:"/c/x" ~create:true with
      | Error e -> Alcotest.fail e
      | Ok h ->
          ignore (api.f_write h ~bytes:100);
          api.f_seek h ~pos:0;
          read_back := api.f_read h ~bytes:100;
          api.f_close h;
          let a = api.alloc ~bytes:4096 in
          api.touch ~addr:a ~write:true ~bytes:4096;
          api.compute ~units:4;
          api.draw ~x:1 ~y:1 ~w:4 ~h:4);
  api.Workloads.Api.go ();
  Alcotest.(check int) "file ops work" 100 !read_back

let test_api_parity_wpos () =
  let w = Wpos.boot ~config:{ Wpos.default_config with Wpos.with_mvm = false;
                              Wpos.fs_blocks = 2048 } () in
  let api = Workloads.Api.of_wpos w in
  let read_back = ref (-1) in
  api.Workloads.Api.spawn ~name:"t" (fun api ->
      let open Workloads.Api in
      match api.f_open ~path:"/os2/x" ~create:true with
      | Error e -> Alcotest.fail e
      | Ok h ->
          ignore (api.f_write h ~bytes:100);
          api.f_seek h ~pos:0;
          read_back := api.f_read h ~bytes:100;
          api.f_close h;
          let a = api.alloc ~bytes:4096 in
          api.touch ~addr:a ~write:true ~bytes:4096;
          api.compute ~units:4;
          api.draw ~x:1 ~y:1 ~w:4 ~h:4);
  api.Workloads.Api.go ();
  Alcotest.(check int) "file ops work" 100 !read_back

let test_queues_ping_pong () =
  let m = Machine.create Machine.Config.pentium_133 in
  let api = Workloads.Api.of_monolithic (Monolithic.boot m ~fs_format:`Hpfs ()) in
  let got = ref 0 in
  let q1 = ref None in
  api.Workloads.Api.spawn ~name:"a" (fun api ->
      let open Workloads.Api in
      let q = api.make_queue ~name:"a" in
      q1 := Some q;
      got := api.q_wait q);
  api.Workloads.Api.spawn ~name:"b" (fun api ->
      let open Workloads.Api in
      let rec wait () =
        match !q1 with
        | Some q -> api.q_post q 17
        | None ->
            api.yield ();
            wait ()
      in
      wait ());
  api.Workloads.Api.go ();
  Alcotest.(check int) "message arrived" 17 !got

let test_table1_specs_complete () =
  Alcotest.(check int) "seven rows" 7 (List.length Workloads.Table1.all);
  List.iter
    (fun (s : Workloads.Table1.spec) ->
      Alcotest.(check bool)
        (s.Workloads.Table1.id ^ " findable")
        true
        (Workloads.Table1.find s.Workloads.Table1.id <> None))
    Workloads.Table1.all

let test_table2_bands () =
  let trap, rpc = Workloads.Micro.table2 ~iters:500 () in
  let open Workloads.Micro in
  (* the paper's ratios, within tolerance *)
  let r_inst = rpc.t2_instructions /. trap.t2_instructions in
  let r_cyc = rpc.t2_cycles /. trap.t2_cycles in
  let r_cpi = rpc.t2_cpi /. trap.t2_cpi in
  Alcotest.(check bool) "instruction ratio ~2.8" true
    (r_inst > 2.3 && r_inst < 3.4);
  Alcotest.(check bool) "cycle ratio ~5.3" true (r_cyc > 4.0 && r_cyc < 6.5);
  Alcotest.(check bool) "CPI ratio ~1.95" true (r_cpi > 1.5 && r_cpi < 2.4);
  Alcotest.(check bool) "trap CPI ~2" true
    (trap.t2_cpi > 1.7 && trap.t2_cpi < 2.4)

let test_ipc_sweep_band () =
  let points = Workloads.Micro.ipc_sweep ~iters:100 ~sizes:[ 0; 4096; 65536 ] () in
  List.iter
    (fun p ->
      let open Workloads.Micro in
      Alcotest.(check bool)
        (Printf.sprintf "improvement at %d bytes within 2-10x (got %.2f)"
           p.sw_bytes p.sw_improvement)
        true
        (p.sw_improvement >= 1.8 && p.sw_improvement <= 11.0))
    points;
  (* magnitude depends on bytes: the small and large ends differ *)
  match points with
  | [ small; _; large ] ->
      Alcotest.(check bool) "size-dependent" true
        Workloads.Micro.(small.sw_improvement > large.sw_improvement +. 1.0)
  | _ -> Alcotest.fail "unexpected sweep shape"

(* --- the bench harness: exact baseline diff and gates ------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* A checked-in smoke baseline, found from the test binary's place in the
   build tree, so the test runs from any working directory. *)
let smoke_baseline file =
  read_file
    (List.fold_left Filename.concat
       (Filename.dirname Sys.executable_name)
       [ Filename.parent_dir_name; "bench"; "smoke"; file ])

(* The number of regressions [b] shows against [a] at [threshold], and
   [a]'s top-level fields edited by [f]. *)
let regressions_against ~threshold a b =
  match Workloads.Bench_ab.compare_json ~a ~b ~threshold with
  | Ok v -> v.Workloads.Bench_ab.v_regressions
  | Error e -> Alcotest.fail e

let edit_fields a f =
  match Json.parse a with
  | Ok (Json.Obj fields) -> Json.to_string (Json.Obj (f fields))
  | _ -> Alcotest.fail "baseline is not a JSON object"

(* [set key f] maps the field [key] through [f]; [within key f] edits
   the fields of the object at [key]. *)
let set key f = List.map (fun (k, v) -> (k, if k = key then f v else v))

let within key f =
  set key (function Json.Obj fields -> Json.Obj (f fields) | v -> v)

(* Known-bad: a one-leaf edit of a checked-in smoke baseline fails the
   threshold-0 diff, even on a leaf no direction gates, and so does a
   leaf missing from one side, an edited string leaf and an edited
   input seed of the body. *)
let test_exact_diff_known_bad () =
  let baseline = smoke_baseline "BENCH_vfs.json" in
  let regressions ~threshold = regressions_against ~threshold baseline
  and edit = edit_fields baseline in
  Alcotest.(check int) "baseline vs itself" 0
    (regressions ~threshold:0.0 baseline);
  let edited = edit (set "compromises" (fun _ -> Json.int 1)) in
  Alcotest.(check int) "one edited leaf fails exactly" 1
    (regressions ~threshold:0.0 edited);
  Alcotest.(check int) "a direction-free leaf is not gated at 5%" 0
    (regressions ~threshold:0.05 edited);
  Alcotest.(check int) "a missing leaf fails exactly" 1
    (regressions ~threshold:0.0
       (edit (List.filter (fun (k, _) -> k <> "compromises"))));
  (* a gate's bound is a string leaf that no array is keyed by *)
  Alcotest.(check int) "an edited string leaf fails exactly" 1
    (regressions ~threshold:0.0
       (edit
          (within "gates"
             (within "hot_hit_rate" (set "bound" (fun _ -> Json.Str ">= 0.8"))))));
  let faults = smoke_baseline "BENCH_faults.json" in
  Alcotest.(check int) "an edited body seed fails exactly" 1
    (regressions_against ~threshold:0.0 faults
       (edit_fields faults (set "seed" (fun _ -> Json.int 7))))

(* Known-bad: a gate forced below its bound is written with
   "pass": false and makes the run's exit status 1, and so does a
   Machcheck finding. *)
let test_failed_gate_known_bad () =
  let open Workloads.Experiment in
  let entry ?(checked = []) ?(full = ignore) gates =
    make ~file:"BENCH_known_bad.json" "known-bad"
      { full = (fun () -> full (); result ~gates []); smoke = None;
        machcheck = None; checked }
  in
  Alcotest.(check int) "passing gate" 0
    (run Full [ entry [ at_least "forced" 1.0 1.0 ] ]);
  Alcotest.(check int) "failed gate exits 1" 1
    (run Full [ entry [ at_least "forced" 0.5 1.0 ] ]);
  (match Json.parse (read_file "BENCH_known_bad.json") with
  | Ok doc -> (
      match Option.bind (Json.member "gates" doc) (Json.member "forced") with
      | Some g ->
          Alcotest.(check bool) "pass written as false" true
            (Json.member "pass" g = Some (Json.Bool false))
      | None -> Alcotest.fail "gate missing from the file")
  | Error e -> Alcotest.fail e);
  (* a finding made under the checker the registry installs around a
     checked profile's run *)
  let double_release () =
    let chk = Option.get (Check.installed ()) in
    let space = Check.new_space chk in
    Check.buf_allocated chk ~space ~addr:64 ~bytes:128;
    Check.buf_released chk ~space ~addr:64;
    Check.buf_released chk ~space ~addr:64
  in
  Alcotest.(check int) "a finding exits 1" 1
    (run Full [ entry ~checked:[ Full ] ~full:double_release [] ]);
  Sys.remove "BENCH_known_bad.json"

let suite =
  [
    Alcotest.test_case "api parity: monolithic" `Quick test_api_parity_monolithic;
    Alcotest.test_case "api parity: wpos" `Quick test_api_parity_wpos;
    Alcotest.test_case "queues ping-pong" `Quick test_queues_ping_pong;
    Alcotest.test_case "table1 specs complete" `Quick test_table1_specs_complete;
    Alcotest.test_case "table2 in paper bands" `Slow test_table2_bands;
    Alcotest.test_case "ipc sweep in paper band" `Slow test_ipc_sweep_band;
    Alcotest.test_case "exact diff: edited smoke baseline fails" `Quick
      test_exact_diff_known_bad;
    Alcotest.test_case "gates: forced failure exits 1" `Quick
      test_failed_gate_known_bad;
  ]
