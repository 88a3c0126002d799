(* The fault-sweep experiment: the E1-style file workload driven under
   increasing injected crash rates.

   Each point boots a fresh system — microkernel, name service, HPFS
   file server under supervision — installs a seeded fault plan that
   crashes the file server at some parts-per-million rate per request,
   and runs edit sessions (open, write, seek, reads, close) from several
   client threads.  Clients go through [Rpc.call_retry] with a
   name-service re-resolve, so a crash costs them a timeout, a backoff
   and a re-open rather than the workload.  The output is the price of
   resilience: completion rate, retries, restarts and added cycles per
   operation relative to the zero-fault baseline. *)

open Mach.Ktypes
module F = Fileserver

type point = {
  p_crash_ppm : int;
  p_ops : int;  (* sessions attempted *)
  p_completed : int;
  p_retries : int;  (* call_retry re-issues *)
  p_reopens : int;  (* whole-session restarts after a lost handle *)
  p_restarts : int;  (* supervisor restarts of the file server *)
  p_gave_up : bool;
  p_injected_crashes : int;
  p_disk_faults : int;  (* injected disk-level faults (write reordering) *)
  p_cycles_per_op : float;
}

type result = {
  r_seed : int;
  r_clients : int;
  r_sessions : int;
  r_baseline_cycles_per_op : float;
  r_points : point list;
  r_check : Check.report option;  (* Machcheck findings, when enabled *)
}

let service_path = "/services/file"

let fail_fs e = failwith (F.Fs_types.fs_error_to_string e)

(* One edit session: create the file, write it, read it back in four
   chunks, close, save durably (the sync is what pushes dirty blocks to
   the disk, so the storage-fault rider has real writes to act on).  A
   crashed-and-restarted server loses the open-file table, so any step
   may come back [E_bad_handle] (or [E_io] from an exhausted retry); the
   session is then restarted from the open, a bounded number of times. *)
let run_session fs sem ~path ~reopens =
  let ( let* ) r f = match r with Ok x -> f x | Error e -> Error e in
  let once () =
    let* h = F.File_server.Client.open_ fs sem ~path ~create:true () in
    let* _n = F.File_server.Client.write fs h (Bytes.make 256 'e') in
    F.File_server.Client.seek fs h ~pos:0;
    let rec reads n =
      if n = 0 then Ok ()
      else
        let* _data = F.File_server.Client.read fs h ~bytes:64 in
        reads (n - 1)
    in
    let* () = reads 4 in
    F.File_server.Client.close fs h;
    F.File_server.Client.sync fs;
    Ok ()
  in
  let rec go tries =
    match once () with
    | Ok () -> true
    | Error _ when tries < 3 ->
        incr reopens;
        go (tries + 1)
    | Error _ -> false
  in
  go 0

let run_point ~seed ~clients ~sessions ~crash_ppm =
  let m = Machine.create Machine.Config.pentium_133 in
  let boot = Mk_services.Bootstrap.boot m in
  let k = boot.Mk_services.Bootstrap.kernel in
  let sys = k.Mach.Kernel.sys in
  let runtime = boot.Mk_services.Bootstrap.runtime in
  let ns = Mk_services.Bootstrap.name_service_exn boot in
  let disk = m.Machine.disk in
  F.Hpfs.mkfs disk ();
  let vfs = F.Vfs.create () in
  let cache = F.Block_cache.create k disk () in
  (match F.Hpfs.mount cache () with
  | Ok pfs -> (
      match F.Vfs.mount vfs ~at:"/os2" pfs with
      | Ok () -> ()
      | Error e -> failwith e)
  | Error e -> fail_fs e);
  let fs = F.File_server.start k runtime vfs () in
  let sup = Mk_services.Supervisor.create k runtime ns in
  Drivers.Disk_driver.arm_faults k disk;
  let plan =
    if crash_ppm > 0 then begin
      let plan = Mach.Fault.create ~seed () in
      Mach.Fault.set_rates plan ~port:"file-service" ~crash_ppm ();
      (* storage faults ride along at the same rate: write reordering
         only — benign for a format whose durability contract is
         sync-based, but it exercises the barrier path under load.
         (Torn writes and bit rot would silently corrupt the
         journal-less HPFS; the recovery sweep covers those.) *)
      Mach.Fault.set_disk_rates plan ~disk:(Machine.Disk.name disk)
        ~reorder_ppm:crash_ppm ();
      sys.Mach.Sched.faults <- Some plan;
      Some plan
    end
    else None
  in
  (* client-side port cache: a live port is reused, a dead one forces a
     fresh name-service resolution (finding the supervisor's rebind) *)
  let cached = ref (Some (F.File_server.port fs)) in
  let resolve () =
    match !cached with
    | Some p when not p.dead -> Some p
    | Some _ | None ->
        let p = Mk_services.Name_service.resolve_port ns ~path:service_path in
        cached := p;
        p
  in
  (* the deadline must sit well above a legitimate op (tens of thousands
     of cycles once disk I/O is in the path) so only abandoned requests
     trip it; the backoff schedule must span a supervised restart, which
     now includes crash recovery (fsck scan over the volume) *)
  F.File_server.set_retry fs ~attempts:7 ~deadline:1_000_000
    ~backoff:1_000_000 ~resolve ();
  let sem = F.Vfs.os2_semantics in
  let completed = ref 0 in
  let reopens = ref 0 in
  let last_done = ref 0 in
  let t0 = ref 0 in
  let driver = Mach.Kernel.task_create k ~name:"sweep-driver" () in
  ignore
    (Mach.Kernel.thread_spawn k driver ~name:"sweep-main" (fun () ->
         (* registration first, so a crash at any point finds a watcher *)
         (* the old flat 64-restart cap, expressed as a budget whose
            window never expires — a sweep point is one long burst *)
         Mk_services.Supervisor.supervise sup ~path:service_path
           ~budget:64 ~window:max_int ~port:(F.File_server.port fs)
           ~restart:(fun () -> F.File_server.restart fs)
           ();
         t0 := Machine.now m;
         for c = 1 to clients do
           let client =
             Mach.Kernel.task_create k ~name:(Printf.sprintf "editor%d" c) ()
           in
           ignore
             (Mach.Kernel.thread_spawn k client ~name:"edit" (fun () ->
                  for s = 1 to sessions do
                    let path = Printf.sprintf "/os2/c%d_s%d.dat" c s in
                    if run_session fs sem ~path ~reopens then
                      incr completed;
                    last_done := Machine.now m
                  done)
               : thread)
         done)
      : thread);
  Mach.Kernel.run k;
  Mk_services.Supervisor.stop sup;
  let ops = clients * sessions in
  let cycles = max 0 (!last_done - !t0) in
  {
    p_crash_ppm = crash_ppm;
    p_ops = ops;
    p_completed = !completed;
    p_retries = sys.Mach.Sched.retry_attempts;
    p_reopens = !reopens;
    p_restarts = Mk_services.Supervisor.restarts sup;
    p_gave_up = Mk_services.Supervisor.gave_up sup;
    p_injected_crashes =
      (match plan with Some p -> Mach.Fault.injected_crashes p | None -> 0);
    p_disk_faults =
      (match plan with Some p -> Mach.Fault.injected_disk_faults p | None -> 0);
    p_cycles_per_op =
      (if ops = 0 then 0.0 else float_of_int cycles /. float_of_int ops);
  }

let default_rates = [ 2_000; 10_000; 30_000 ]

let run ?(seed = 42) ?(clients = 4) ?(sessions = 10) ?(rates = default_rates)
    ?(checks = false) () =
  if rates = [] then invalid_arg "Fault_sweep.run: empty rate list";
  (* Machcheck rides along by global install: each point's boot attaches
     its kernel to the checker, including every supervised restart. *)
  Check.with_checker checks @@ fun chk ->
  let baseline = run_point ~seed ~clients ~sessions ~crash_ppm:0 in
  let points =
    List.map (fun ppm -> run_point ~seed ~clients ~sessions ~crash_ppm:ppm)
      rates
  in
  {
    r_seed = seed;
    r_clients = clients;
    r_sessions = sessions;
    r_baseline_cycles_per_op = baseline.p_cycles_per_op;
    r_points = points;
    r_check = Option.map Check.report chk;
  }

let to_json r =
  [
    ("seed", Json.int r.r_seed); ("clients", Json.int r.r_clients);
    ("sessions", Json.int r.r_sessions);
    ("ops", Json.int (r.r_clients * r.r_sessions));
    ("baseline_cycles_per_op", Json.fixed 1 r.r_baseline_cycles_per_op);
    ( "results",
      Json.rows
        (fun p ->
          [ ("crash_ppm", Json.int p.p_crash_ppm); ("ops", Json.int p.p_ops);
            ("completed", Json.int p.p_completed);
            ( "completion_rate",
              Json.fixed 3
                (if p.p_ops = 0 then 0.0
                 else float_of_int p.p_completed /. float_of_int p.p_ops)
            );
            ("retries", Json.int p.p_retries);
            ("reopens", Json.int p.p_reopens);
            ("restarts", Json.int p.p_restarts);
            ("gave_up", Json.Bool p.p_gave_up);
            ("injected_crashes", Json.int p.p_injected_crashes);
            ("disk_faults", Json.int p.p_disk_faults);
            ("cycles_per_op", Json.fixed 1 p.p_cycles_per_op);
            ( "added_cycles_per_op",
              Json.fixed 1
                (p.p_cycles_per_op -. r.r_baseline_cycles_per_op) ) ])
        r.r_points );
  ]
