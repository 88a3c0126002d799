(* The recovery-sweep experiment: exhaustive crash-point checking of the
   journalled file system, plus the price and payoff of the journal.

   The core loop is the crash-consistency check the paper's multi-server
   design calls for: run a scripted file workload against JFS, learn how
   many disk writes it issues, then re-run it once per crash point — a
   seeded fault plan cuts disk power at write 1, write 2, ... write N —
   and after each cut recover (fresh cache, remount with journal replay,
   fsck) and verify two invariants:

   - no acknowledged operation is lost: every create/remove that
     returned [Ok] while the disk was still powered must be visible,
     byte-exact, after recovery;
   - no torn state: the recovered volume passes the full invariant scan.

   Violations surface as Machcheck "crash" findings when a checker is
   installed, and in the point rows either way.  Two side series
   measure the journal's cost (cycles and disk writes per op, JFS vs the
   same format without a journal) and recovery latency (replay time as a
   function of journal fill). *)

module F = Fileserver

(* --- the scripted workload ----------------------------------------------- *)

(* Deterministic op list: mostly creates-with-content, every fifth op
   removes the oldest file still present, content sizes straddle the
   one-block boundary so transactions carry one to several data blocks. *)

type op = Op_create of string * bytes | Op_remove of string

let content i =
  let len = 64 + (i * 263 mod 1837) in
  Bytes.init len (fun j -> Char.chr ((i * 31 + j * 7) land 0xFF))

let script ops =
  let live = ref [] in
  let acc = ref [] in
  for i = 1 to ops do
    if i mod 5 = 0 && !live <> [] then begin
      let name = List.hd (List.rev !live) in
      live := List.filter (fun n -> n <> name) !live;
      acc := Op_remove name :: !acc
    end
    else begin
      let name = Printf.sprintf "f%03d.dat" i in
      live := name :: !live;
      acc := Op_create (name, content i) :: !acc
    end
  done;
  List.rev !acc

(* Run the script at the pfs layer (from a kernel thread: disk I/O
   blocks).  An op is {e acknowledged} — recorded in [expect] — only
   when it returned [Ok] while the disk was still powered: once the
   power cut lands, later "successes" live only in the doomed cache and
   carry no durability promise. *)
let run_script (pfs : F.Fs_types.pfs) disk ops expect =
  List.iter
    (fun op ->
      let r =
        match op with
        | Op_create (name, data) -> (
            match pfs.F.Fs_types.pfs_create ~dir:pfs.F.Fs_types.pfs_root name
                    ~is_dir:false
            with
            | Ok id -> (
                match pfs.F.Fs_types.pfs_write id ~off:0 data with
                | Ok _ -> Ok ()
                | Error e -> Error e)
            | Error e -> Error e)
        | Op_remove name ->
            pfs.F.Fs_types.pfs_remove ~dir:pfs.F.Fs_types.pfs_root name
      in
      match r with
      | Ok () when Machine.Disk.powered_on disk ->
          let name, what =
            match op with
            | Op_create (name, data) -> (name, Some data)
            | Op_remove name -> (name, None)
          in
          expect := (name, what) :: List.remove_assoc name !expect
      | Ok () | Error _ -> ())
    ops

(* Verify every acknowledged op against the recovered volume. *)
let verify (pfs : F.Fs_types.pfs) expect ~lost =
  List.iter
    (fun (name, what) ->
      let looked = pfs.F.Fs_types.pfs_lookup ~dir:pfs.F.Fs_types.pfs_root name in
      match (what, looked) with
      | Some data, Ok id -> (
          let len = Bytes.length data in
          match pfs.F.Fs_types.pfs_read id ~off:0 ~len with
          | Ok got when Bytes.equal got data -> (
              match pfs.F.Fs_types.pfs_stat id with
              | Ok st when st.F.Fs_types.st_size = len -> ()
              | Ok st ->
                  lost
                    (Printf.sprintf
                       "%s: acked size %d but recovered size %d" name len
                       st.F.Fs_types.st_size)
              | Error e ->
                  lost
                    (Printf.sprintf "%s: stat after recovery failed: %s" name
                       (F.Fs_types.fs_error_to_string e)))
          | Ok _ -> lost (Printf.sprintf "%s: content differs after recovery" name)
          | Error e ->
              lost
                (Printf.sprintf "%s: read after recovery failed: %s" name
                   (F.Fs_types.fs_error_to_string e)))
      | Some _, Error e ->
          lost
            (Printf.sprintf "%s: acked file missing after recovery (%s)" name
               (F.Fs_types.fs_error_to_string e))
      | None, Error F.Fs_types.E_not_found -> ()
      | None, Ok _ ->
          lost (Printf.sprintf "%s: acked remove resurfaced after recovery" name)
      | None, Error e ->
          lost
            (Printf.sprintf "%s: lookup after acked remove failed oddly: %s"
               name
               (F.Fs_types.fs_error_to_string e)))
    expect

(* --- Machcheck hooks ------------------------------------------------------ *)

(* Tell the attached checker, if any. *)
let chk (sys : Mach.Sched.t) f = Option.iter f sys.Mach.Sched.checks

(* --- one system per point ------------------------------------------------- *)

type fmt = Plain | Journalled

(* One fresh system per run: the format made and mounted at the pfs
   layer, then [f e disk cache pfs] gives the body of the one driver
   thread (disk I/O blocks) and the finisher read after the run. *)
let with_fs ?faults fmt f =
  Scenario.run { Scenario.base with faults } @@ fun e ->
  let disk = e.m.Machine.disk in
  let mkfs, mount =
    match fmt with
    | Plain -> ((fun d -> F.Hpfs.mkfs d ()), fun c -> F.Hpfs.mount c ())
    | Journalled -> ((fun d -> F.Jfs.mkfs d ()), fun c -> F.Jfs.mount c ())
  in
  mkfs disk;
  let cache = F.Block_cache.create e.k disk () in
  let pfs = Result.fold ~ok:Fun.id ~error:Scenario.fail_fs (mount cache) in
  let body, finish = f e disk cache pfs in
  let task = Mach.Kernel.task_create e.k ~name:"recovery-sweep" () in
  Scenario.spawn e task "driver" body;
  finish

(* The un-faulted reference run: how many disk writes does the workload
   issue?  That count is the crash-point index space — the same script
   under the same deterministic machine issues the identical write
   sequence, so "power cut at write [n]" is meaningful for n in
   [1 .. total]. *)
let count_writes ~ops =
  with_fs Journalled @@ fun _ disk _ pfs ->
  let w0 = Machine.Disk.writes_applied disk in
  ( (fun () -> run_script pfs disk (script ops) (ref [])),
    fun () -> Machine.Disk.writes_applied disk - w0 )

(* The supervised restart after a crash: a recovery mount against a cold
   cache (the dead incarnation's dirty blocks are gone, as they would
   be).  On success, the volume, what the journal replay did and what
   [during] made of the cache; either way, the cycles from the mount to
   the end of [during]. *)
let recover (e : Scenario.env) disk during =
  let cache = F.Block_cache.create e.k disk () in
  let t0 = Machine.now e.m in
  let mounted =
    Result.map
      (fun pfs ->
        ( pfs,
          Option.value (F.Jfs.last_recovery cache) ~default:F.Journal.clean_scan,
          during cache ))
      (F.Jfs.mount cache ())
  in
  (mounted, Machine.now e.m - t0)

let run_crash_point ~seed ~ops ~n =
  let faults ~disk =
    let plan = Mach.Fault.create ~seed () in
    Mach.Fault.at_disk_write plan ~disk ~n Mach.Fault.Power_cut;
    plan
  in
  with_fs ~faults Journalled @@ fun e disk _ pfs ->
  let expect = ref [] in
  let lost = ref 0 in
  let torn = ref 0 in
  let fsck_count = ref 0 in
  let outcome = ref (F.Journal.clean_scan, 0) in
  let torn_state detail =
    incr torn;
    chk e.sys (fun c ->
        Check.crash_torn_state c (Printf.sprintf "crash@write %d: %s" n detail))
  in
  ( (fun () ->
      run_script pfs disk (script ops) expect;
      (* the crash has happened (the plan cut power at write [n]); now
         play the supervised restart: faults off, power back *)
      e.sys.Mach.Sched.faults <- None;
      Machine.Disk.power_restore disk;
      (match recover e disk (fun cache -> F.Jfs.fsck cache ()) with
      | Ok (pfs2, rv, findings), cycles ->
          outcome := (rv, cycles);
          fsck_count := List.length findings;
          List.iter (fun f -> torn_state ("fsck: " ^ f)) findings;
          verify pfs2 !expect ~lost:(fun detail ->
              incr lost;
              chk e.sys (fun c ->
                  Check.crash_lost_write c
                    (Printf.sprintf "crash@write %d: %s" n detail)))
      | Error err, cycles ->
          outcome := (F.Journal.clean_scan, cycles);
          torn_state
            ("recovery mount failed: " ^ F.Fs_types.fs_error_to_string err));
      chk e.sys Check.crash_point_checked),
    fun () ->
      let rv, cycles = !outcome in
      ( !lost,
        !torn,
        [ ("write", Json.int n); ("acked_ops", Json.int (List.length !expect));
          ("replayed_txns", Json.int rv.F.Journal.rv_replayed_txns);
          ("replayed_blocks", Json.int rv.F.Journal.rv_replayed_blocks);
          ("discarded", Json.int rv.F.Journal.rv_discarded);
          ("fsck_findings", Json.int !fsck_count); ("lost", Json.int !lost);
          ("torn", Json.int !torn);
          ("recovery_cycles", Json.int (max 0 cycles)) ] ) )

(* --- journal overhead and recovery latency -------------------------------- *)

(* Same script, same extfs engine, journal on vs off: the delta is what
   write-ahead logging costs in cycles and disk traffic. *)
let run_overhead_point ~ops =
  let timed fmt =
    with_fs fmt @@ fun e disk cache pfs ->
    let w0 = Machine.Disk.writes_applied disk in
    let cycles = ref 0 in
    ( (fun () ->
        let t0 = Machine.now e.m in
        run_script pfs disk (script ops) (ref []);
        pfs.F.Fs_types.pfs_sync ();
        cycles := Machine.now e.m - t0),
      fun () ->
        ( float_of_int (max 0 !cycles) /. float_of_int (max 1 ops),
          Machine.Disk.writes_applied disk - w0,
          F.Extfs.journal_writes cache ) )
  in
  let plain_cycles, plain_writes, _ = timed Plain in
  let jfs_cycles, jfs_writes, records = timed Journalled in
  [ ("ops", Json.int ops);
    ("plain_cycles_per_op", Json.fixed 1 plain_cycles);
    ("jfs_cycles_per_op", Json.fixed 1 jfs_cycles);
    ( "overhead_pct",
      Json.fixed 1
        (if plain_cycles > 0.0 then
           (jfs_cycles -. plain_cycles) /. plain_cycles *. 100.0
         else 0.0) );
    ("plain_disk_writes", Json.int plain_writes);
    ("jfs_disk_writes", Json.int jfs_writes);
    ("journal_records", Json.int records) ]

(* Run the workload without a sync, abandon the dirty cache (the crash),
   and time the recovery mount: replay work grows with journal fill. *)
let run_latency_point ~ops =
  with_fs Journalled @@ fun e disk cache pfs ->
  let outcome = ref (F.Journal.clean_scan, 0) in
  ( (fun () ->
      run_script pfs disk (script ops) (ref []);
      match recover e disk ignore with
      | Ok (_, rv, ()), cycles -> outcome := (rv, cycles)
      | Error err, _ -> Scenario.fail_fs err),
    fun () ->
      let rv, cycles = !outcome in
      [ ("ops", Json.int ops);
        ("journal_records", Json.int (F.Extfs.journal_writes cache));
        ("replayed_txns", Json.int rv.F.Journal.rv_replayed_txns);
        ("replayed_blocks", Json.int rv.F.Journal.rv_replayed_blocks);
        ("recovery_cycles", Json.int (max 0 cycles)) ] )

(* --- the sweep ------------------------------------------------------------ *)

let default_series = [ 4; 8; 16 ]

let run ?(seed = 42) ?(ops = 12) ?(max_points = 64) ?(series = default_series)
    () =
  if ops <= 0 then invalid_arg "Recovery_sweep.run: ops must be positive";
  if max_points <= 0 then
    invalid_arg "Recovery_sweep.run: max_points must be positive";
  let total = count_writes ~ops in
  let indices =
    if total <= max_points then List.init total (fun i -> i + 1)
    else if max_points = 1 then [ total ]
    else
      (* even stride across [1 .. total], endpoints included *)
      List.init max_points (fun i ->
          1 + (i * (total - 1) / (max_points - 1)))
      |> List.sort_uniq Int.compare
  in
  let points = List.map (fun n -> run_crash_point ~seed ~ops ~n) indices in
  let overhead = List.map (fun ops -> run_overhead_point ~ops) series in
  let latency = List.map (fun ops -> run_latency_point ~ops) series in
  let lost = List.fold_left (fun a (l, _, _) -> a + l) 0 points in
  let torn = List.fold_left (fun a (_, t, _) -> a + t) 0 points in
  Experiment.result ~seed
    ~gates:
      [ Experiment.at_most "lost_writes" (float_of_int lost) 0.0;
        Experiment.at_most "torn_states" (float_of_int torn) 0.0 ]
    [
      ("seed", Json.int seed); ("ops", Json.int ops);
      ("total_writes", Json.int total);
      ("points_checked", Json.int (List.length points));
      ("exhaustive", Json.Bool (total <= max_points));
      ("lost_writes", Json.int lost); ("torn_states", Json.int torn);
      ("crash_points", Json.rows (fun (_, _, row) -> row) points);
      ("journal_overhead", Json.rows Fun.id overhead);
      ("recovery_latency", Json.rows Fun.id latency);
    ]
