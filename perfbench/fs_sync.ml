(* fs-sync: edit sessions with sync against the RPC file server on a
   journalled JFS volume, 4 simulated CPUs, closed loop.

   Why: it is the write+sync use of the file server that os2-apps uses
   for reads.  It is disk- and journal-bound and runs on several CPUs,
   so it is where "group commit or sharding" for the file server can be
   decided and shown.  The netserver and graphics are idle.

   Shape: one editor client thread per CPU, bound there; the file
   server and the boot services stay on CPU 0.  Each client runs
   [sessions] seeded sessions: open (create) one file, seek+read and
   seek+write of a seeded byte pattern in a seeded order, close, and
   sync.  Every session ends in sync.  [shared] files are common to all
   clients (each client writes only its own stripe of them, so the
   final contents do not depend on the interleaving); the rest are
   private.  The files hold [file_bytes] each, 448 blocks in all: more
   than the block cache's default 256, so the cache writes back.

   Set-up (counted in setup_s): boot, mkfs, mount, file-server start
   and a populate pass that writes every file's seeded initial contents
   and syncs.  Then every CPU's clock is brought to the same wall-clock
   instant and the timed phase runs the sessions.

   Latency clock: each [Client] call is timed on the calling thread's
   CPU clock; the thread is bound, so it returns on the CPU it called
   from.

   Checks: after the timed phase every file is read back and compared
   byte for byte with a shadow copy of everything written, and
   [Jfs.fsck] must come back clean.  The same scripts are then replayed
   through [Monolithic.sys_*] on a fresh machine: the same file-system
   code reached by trap.  The per-operation difference is the RPC and
   server-dispatch share (the paper's "about a factor of 3"), and the
   elapsed-time ratio is this workload's [wpos_native_ratio]. *)

open Common
module F = Fileserver
module Client = F.File_server.Client

let ncpus = 4
let clients = 4
let sessions = 320
let private_files = 12
let shared = 8
let file_bytes = 4096
let stripe = file_bytes / clients
let fs_blocks = 8192

type op = Read of int * int | Write of int * int * int  (* pos, len[, salt] *)
type session = { file : int; ops : op list }

let nfiles = (clients * private_files) + shared
let private_file c i = (c * private_files) + i
let shared_file i = (clients * private_files) + i
let path root f = Printf.sprintf "%s/f%03d.dat" root f

let initial ~seed f =
  Bytes.init file_bytes (fun j -> Char.chr ((seed + (f * 131) + (j * 13)) land 0xff))

let pattern salt len = Bytes.init len (fun j -> Char.chr ((salt + (j * 7)) land 0xff))

(* The seeded scripts: [scripts.(c)] is client c's session list.  Every
   session has [reads] reads and [writes] writes in a seeded order, and
   every fourth session edits a shared file, so the amount of work is the
   same at every seed; the seed draws the files, offsets, lengths, order
   and byte patterns. *)
let reads = 3
let writes = 2

let generate ~seed =
  let rng = Random.State.make [| seed; 0x66737973 |] in
  Array.init clients (fun c ->
      List.init sessions (fun i ->
          let is_shared = i mod 4 = 3 in
          let file =
            if is_shared then shared_file (Random.State.int rng shared)
            else private_file c (Random.State.int rng private_files)
          in
          let op is_read =
            let len = 64 + Random.State.int rng 449 in
            if is_read then Read (Random.State.int rng (file_bytes - len), len)
            else
              let lo, span = if is_shared then (c * stripe, stripe) else (0, file_bytes) in
              let len = min len span in
              Write (lo + Random.State.int rng (span - len + 1), len, Random.State.bits rng)
          in
          let ops = List.init reads (fun _ -> op true) @ List.init writes (fun _ -> op false) in
          let keyed = List.map (fun o -> (Random.State.bits rng, o)) ops in
          { file; ops = List.map snd (List.sort compare keyed) }))

(* One system's file calls, as the scripts need them. *)
type 'h fs = {
  layer : string;
  root : string;
  open_ : string -> ('h, F.Fs_types.fs_error) result;
  seek : 'h -> int -> unit;
  read : 'h -> int -> (bytes, F.Fs_types.fs_error) result;
  write : 'h -> bytes -> (int, F.Fs_types.fs_error) result;
  close : 'h -> unit;
  sync : unit -> unit;
}

type side = {
  costs : op_costs;  (* op -> count, cycles *)
  lat : samples;
  file_ops : samples;  (* every call but sync *)
  mutable errors : string list;
  mutable calls : int;
}

let side () =
  { costs = op_costs (); lat = samples (); file_ops = samples (); errors = []; calls = 0 }

let populate ~seed fs =
  for f = 0 to nfiles - 1 do
    match fs.open_ (path fs.root f) with
    | Error e -> failwith ("populate: " ^ F.Fs_types.fs_error_to_string e)
    | Ok h ->
        ignore (fs.write h (initial ~seed f) : (int, _) result);
        fs.close h
  done;
  fs.sync ()

(* Run client [c]'s sessions, timing every call on the caller's clock
   and applying each acknowledged write to the shadow copy. *)
let client m fs side shadow c script =
  let timed name f =
    side.calls <- side.calls + 1;
    let t0 = Machine.now m in
    let r = Trace.call ~machine:m ~req:side.calls ~layer:fs.layer name f in
    let dt = Machine.now m - t0 in
    add_cost side.costs name dt;
    note side.lat dt;
    if name <> "sync" then note side.file_ops dt;
    r
  in
  let err what e =
    side.errors <-
      Printf.sprintf "client %d: %s: %s" c what (F.Fs_types.fs_error_to_string e)
      :: side.errors
  in
  List.iter
    (fun s ->
      match timed "open" (fun () -> fs.open_ (path fs.root s.file)) with
      | Error e -> err "open" e
      | Ok h ->
          List.iter
            (function
              | Read (pos, len) -> (
                  timed "seek" (fun () -> fs.seek h pos);
                  match timed "read" (fun () -> fs.read h len) with
                  | Error e -> err "read" e
                  | Ok data ->
                      (* a private file has no other writer: check it now *)
                      if s.file < clients * private_files
                         && not (Bytes.equal data (Bytes.sub shadow.(s.file) pos len))
                      then
                        side.errors <-
                          Printf.sprintf "%s client %d: file %d read at %d differs" fs.layer c
                            s.file pos
                          :: side.errors)
              | Write (pos, len, salt) -> (
                  let data = pattern salt len in
                  timed "seek" (fun () -> fs.seek h pos);
                  match timed "write" (fun () -> fs.write h data) with
                  | Ok n when n = len -> Bytes.blit data 0 shadow.(s.file) pos len
                  | Ok n ->
                      side.errors <-
                        Printf.sprintf "client %d: short write %d/%d" c n len
                        :: side.errors
                  | Error e -> err "write" e))
            s.ops;
          timed "close" (fun () -> fs.close h);
          timed "sync" (fun () -> fs.sync ()))
    script

(* Read every file back and compare with the shadow copy. *)
let verify fs shadow =
  let bad = ref [] in
  for f = 0 to nfiles - 1 do
    match fs.open_ (path fs.root f) with
    | Error e ->
        bad := Printf.sprintf "verify %s: %s" fs.layer (F.Fs_types.fs_error_to_string e) :: !bad
    | Ok h ->
        (match fs.read h (file_bytes + 1) with
        | Ok data when Bytes.equal data shadow.(f) -> ()
        | Ok _ -> bad := Printf.sprintf "verify %s: file %d differs" fs.layer f :: !bad
        | Error e ->
            bad := Printf.sprintf "verify %s: read %d: %s" fs.layer f
                     (F.Fs_types.fs_error_to_string e) :: !bad);
        fs.close h
  done;
  !bad

(* Bring every CPU's clock to the wall clock, so the timed phase starts
   at one instant on all of them. *)
let align_clocks m =
  let now = Machine.global_now m in
  for i = 0 to Machine.ncpus m - 1 do
    Machine.Cpu.advance_to (Machine.nth_cpu m i) now
  done

(* Run [body] on a thread bound to [cpu] of task [task]. *)
let spawn k task ~name ~cpu body =
  ignore (Mach.Kernel.thread_spawn k task ~name ~affinity:cpu ~bound:true body : Mach.Ktypes.thread)

(* The monolithic comparator's file system has no locking of its own:
   two threads inside it at once, one blocked on the disk mid-operation,
   corrupt files (four concurrent editors leave several files with wrong
   contents at every seed tried).  The replay therefore holds one lock
   around each system call, the serialisation the single-threaded WPOS
   file server applies to its requests.  An uncontended acquire costs no
   simulated cycles; a contended one blocks the caller like any kernel
   sleep. *)
type lock = {
  sys : Mach.Sched.t;
  mutable held : bool;
  waiters : Mach.Ktypes.thread Queue.t;
}

let with_lock l f =
  while l.held do
    Queue.add (Mach.Sched.self ()) l.waiters;
    ignore (Mach.Sched.block "fs-lock" : Mach.Ktypes.kern_return)
  done;
  l.held <- true;
  Fun.protect f ~finally:(fun () ->
      l.held <- false;
      Option.iter (Mach.Sched.wake l.sys) (Queue.take_opt l.waiters))

(* Counters of the WPOS file server read through its public accessors. *)
type fs_probe = {
  requests : int;
  bc_hits : int;
  bc_misses : int;
  writebacks : int;
  journal : int;
  nc_hits : int;
  nc_lookups : int;
}

(* A booted system: its kernel, its file calls, a counter probe and the
   checks to run once the timed phase has been verified. *)
type 'h system = {
  kernel : Mach.Kernel.t;
  fs : 'h fs;
  probe : unit -> fs_probe option;
  checks : calls:int -> before:fs_probe option -> after:fs_probe option -> string list;
}

let boot_wpos m =
  let services =
    Trace.setup ~machine:m ~layer:"services" "Bootstrap.boot" (fun () ->
        Mk_services.Bootstrap.boot m)
  in
  let k = services.Mk_services.Bootstrap.kernel in
  let cache, vfs, fsrv =
    Trace.setup ~machine:m ~layer:"fileserver" "mkfs+mount+start" (fun () ->
        F.Jfs.mkfs m.Machine.disk ~blocks:fs_blocks ();
        let cache = F.Block_cache.create k m.Machine.disk () in
        let vfs = F.Vfs.create () in
        (match F.Jfs.mount cache () with
        | Ok pfs -> (
            match F.Vfs.mount vfs ~at:"/jfs" pfs with
            | Ok () -> ()
            | Error e -> failwith e)
        | Error e -> failwith (F.Fs_types.fs_error_to_string e));
        (cache, vfs, F.File_server.start k services.Mk_services.Bootstrap.runtime vfs ()))
  in
  let sem = F.Vfs.os2_semantics in
  let probe () =
    let ns = F.Vfs.cache_stats vfs in
    let nc_hits = ns.F.Namecache.cs_hits + ns.F.Namecache.cs_neg_hits in
    Some
      {
        requests = F.File_server.requests_served fsrv;
        bc_hits = F.Block_cache.hits cache;
        bc_misses = F.Block_cache.misses cache;
        writebacks = F.Block_cache.writebacks cache;
        journal = F.Extfs.journal_writes cache;
        nc_hits;
        nc_lookups = nc_hits + ns.F.Namecache.cs_misses;
      }
  in
  (* the benchmark's own count of Client calls must match the server's *)
  let checks ~calls ~before ~after =
    let served =
      match (before, after) with
      | Some b, Some a -> a.requests - b.requests
      | _ -> -1
    in
    (if served <> calls then
       [ Printf.sprintf "%d Client calls but the file server counted %d requests" calls served ]
     else [])
    @ List.map (fun s -> "fsck: " ^ s) (F.Jfs.fsck cache ())
  in
  {
    kernel = k;
    fs =
      {
        layer = "fileserver";
        root = "/jfs";
        open_ = (fun p -> Client.open_ fsrv sem ~path:p ~create:true ());
        seek = (fun h pos -> Client.seek fsrv h ~pos);
        read = (fun h bytes -> Client.read fsrv h ~bytes);
        write = (fun h data -> Client.write fsrv h data);
        close = (fun h -> Client.close fsrv h);
        sync = (fun () -> Client.sync fsrv);
      };
    probe;
    checks;
  }

let boot_native m =
  let mono =
    Trace.setup ~machine:m ~layer:"monolithic" "Monolithic.boot" (fun () ->
        Monolithic.boot m ~fs_format:`Jfs ~fs_blocks ())
  in
  let lk =
    { sys = (Monolithic.kernel mono).Mach.Kernel.sys; held = false; waiters = Queue.create () }
  in
  let l f = with_lock lk f in
  {
    kernel = Monolithic.kernel mono;
    fs =
      {
        layer = "monolithic";
        root = "/c";
        open_ = (fun p -> l (fun () -> Monolithic.sys_open mono ~path:p ~create:true ()));
        seek = (fun h pos -> l (fun () -> Monolithic.sys_seek mono h ~pos));
        read = (fun h bytes -> l (fun () -> Monolithic.sys_read mono h ~bytes));
        write = (fun h data -> l (fun () -> Monolithic.sys_write mono h data));
        close = (fun h -> l (fun () -> Monolithic.sys_close mono h));
        sync = (fun () -> l (fun () -> Monolithic.sys_sync mono));
      };
    probe = (fun () -> None);
    checks = (fun ~calls:_ ~before:_ ~after:_ -> []);
  }

type run = {
  side : side;
  elapsed : int;
  counters : counters;
  before : fs_probe option;
  after : fs_probe option;
  problems : string list;
}

(* Boot, populate, time the scripts (client c bound to CPU c), then
   verify. *)
let run_system ~ncpus ~seed ~scripts ~boot =
  let m =
    Trace.setup ~layer:"machine" "Machine.create" (fun () ->
        Machine.create (Machine.Config.with_ncpus Machine.Config.pentium_133 ~n:ncpus))
  in
  let s = boot m in
  let k = s.kernel and fs = s.fs in
  let sys = k.Mach.Kernel.sys in
  let app = Mach.Kernel.task_create k ~name:"editors" () in
  Trace.setup ~machine:m ~layer:fs.layer "populate" (fun () ->
      spawn k app ~name:"populate" ~cpu:0 (fun () -> populate ~seed fs);
      Mach.Kernel.run k);
  let shadow = Array.init nfiles (initial ~seed) in
  let side = side () in
  align_clocks m;
  let c0 = snap m sys and before = s.probe () and t0 = Machine.global_now m in
  Trace.timed ~machine:m ~layer:"mach" "Kernel.run" (fun () ->
      Array.iteri
        (fun c script ->
          spawn k app ~name:(Printf.sprintf "editor%d" c) ~cpu:c (fun () ->
              client m fs side shadow c script))
        scripts;
      Mach.Kernel.run k);
  let elapsed = Machine.global_now m - t0 in
  let counters = diff (snap m sys) c0 in
  let after = s.probe () in
  let verified = ref [ "verify: did not run" ] in
  Trace.call ~machine:m ~layer:fs.layer "verify" (fun () ->
      spawn k app ~name:"verify" ~cpu:0 (fun () -> verified := verify fs shadow);
      Mach.Kernel.run k);
  let problems =
    List.rev side.errors @ !verified
    @ check_busy_idle ~what:fs.layer counters
    @ s.checks ~calls:side.calls ~before ~after
  in
  { side; elapsed; counters; before; after; problems }

(* Median cycles of the calls other than sync: most hit the block
   cache, so this is the call path itself rather than a disk wait. *)
let per_op (s : side) = float_of_int (Stat.percentile (Stat.sorted_of_list s.file_ops.xs) 0.5)

let run ~seed =
  let scripts = generate ~seed in
  let wpos = run_system ~ncpus ~seed ~scripts ~boot:boot_wpos in
  let native = run_system ~ncpus ~seed ~scripts ~boot:boot_native in
  (* The RPC tax: client 0's script alone on a uniprocessor, so no
     operation queues behind another client's. *)
  let alone boot = run_system ~ncpus:1 ~seed ~scripts:[| scripts.(0) |] ~boot in
  let wpos1 = alone boot_wpos and native1 = alone boot_native in
  let per_op_w = per_op wpos1.side and per_op_n = per_op native1.side in
  let all = [ wpos; native; wpos1; native1 ] in
  let p0 = Option.get wpos.before and p1 = Option.get wpos.after in
  let elapsed_mc = float_of_int wpos.elapsed /. 1e6 in
  let e2e =
    [
      metric "sim_elapsed_mcycles" "Mcycles" elapsed_mc;
      metric "wpos_native_ratio" "ratio" (rate wpos.elapsed native.elapsed);
      metric "max_rate_at_slo" ops_unit (float_of_int wpos.side.calls /. elapsed_mc);
    ]
    @ latency_metrics wpos.side.lat
  in
  let factor = if per_op_n = 0.0 then 0.0 else per_op_w /. per_op_n in
  let layer =
    machine_metrics wpos.counters
    @ [
        metric "fileserver.journal_writes" "count" (float_of_int (p1.journal - p0.journal));
        metric "fileserver.bcache_writebacks" "count"
          (float_of_int (p1.writebacks - p0.writebacks));
        metric "fileserver.rpc_tax_kcycles" "kcycles" ((per_op_w -. per_op_n) /. 1e3);
        metric "fileserver.rpc_factor" "ratio" factor;
        metric "fileserver.requests" "count" (float_of_int (p1.requests - p0.requests));
        metric "fileserver.bcache_hit_rate" "ratio"
          (rate (p1.bc_hits - p0.bc_hits)
             (p1.bc_hits - p0.bc_hits + p1.bc_misses - p0.bc_misses));
        metric "fileserver.ncache_hit_rate" "ratio"
          (rate (p1.nc_hits - p0.nc_hits) (p1.nc_lookups - p0.nc_lookups));
        metric "lat_samples" "count" (float_of_int wpos.side.lat.n);
      ]
    @ List.map
        (fun op ->
          metric (Printf.sprintf "fileserver.%s.kcycles" op) "kcycles"
            (mean_kcycles wpos.side.costs op))
        [ "open"; "read"; "write"; "close"; "sync" ]
  in
  {
    e2e;
    layer;
    attempted = List.fold_left (fun acc r -> acc + r.side.calls) 0 all;
    failed = List.fold_left (fun acc r -> acc + List.length r.side.errors) 0 all;
    problems =
      List.concat_map (fun r -> r.problems) all
      @ latency_problems ~what:"fs-sync" wpos.side.lat;
    instructions =
      List.fold_left (fun acc r -> acc + r.counters.perf.Machine.Perf.instructions) 0 all;
    notes =
      [
        Printf.sprintf
          "fs-sync: one client alone, median call other than sync: %.1f kcycles via the \
           RPC file server, %.1f via trap; factor %.2f against the paper's \"about a \
           factor of 3\", RPC tax %.1f kcycles/op"
          (per_op_w /. 1e3) (per_op_n /. 1e3) factor ((per_op_w -. per_op_n) /. 1e3);
        Printf.sprintf
          "fs-sync: %d clients, WPOS %.2f Mcycles against monolithic %.2f Mcycles for the \
           same scripts"
          clients elapsed_mc (float_of_int native.elapsed /. 1e6);
      ];
  }
