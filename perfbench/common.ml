(* What every workload reports, and the machine/kernel counters read
   through the program's public accessors. *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

type outcome = {
  e2e : metric list;  (* simulated end-to-end metrics: exact for a seed *)
  layer : metric list;  (* simulated per-layer metrics: exact for a seed *)
  attempted : int;
  failed : int;
  problems : string list;  (* failed output checks and cross-checks *)
  instructions : int;  (* simulated instructions retired in the timed phase *)
  notes : string list;  (* paper anchors, printed beside the numbers *)
}

let ops_unit = "ops/Mcycle"

(* ---- counters --------------------------------------------------------- *)

type counters = {
  perf : Machine.Perf.snapshot;  (* summed over CPUs *)
  clock : float array;  (* per-CPU clock *)
  busy : float array;  (* per-CPU charged cycles *)
  coherence : int;
  bus_stall : int;
  ipis : int;
  steals : int;
  xmsgs : int;
  disk_requests : int;
  page_faults : int;
  reply_hits : int;
  reply_misses : int;
}

let add_perf (a : Machine.Perf.snapshot) (b : Machine.Perf.snapshot) =
  Machine.Perf.
    {
      instructions = a.instructions + b.instructions;
      cycles = a.cycles + b.cycles;
      bus_cycles = a.bus_cycles + b.bus_cycles;
      icache_hits = a.icache_hits + b.icache_hits;
      icache_misses = a.icache_misses + b.icache_misses;
      dcache_hits = a.dcache_hits + b.dcache_hits;
      dcache_misses = a.dcache_misses + b.dcache_misses;
      tlb_misses = a.tlb_misses + b.tlb_misses;
      address_space_switches =
        a.address_space_switches + b.address_space_switches;
      interrupts = a.interrupts + b.interrupts;
    }

let snap (m : Machine.t) (sys : Mach.Sched.t) =
  let cpus = Array.init (Machine.ncpus m) (Machine.nth_cpu m) in
  let perfs = Array.map Machine.Cpu.perf cpus in
  let sum f = Array.fold_left (fun acc p -> acc + f p) 0 perfs in
  {
    perf =
      Array.fold_left
        (fun acc p -> add_perf acc (Machine.Perf.snapshot p))
        Machine.Perf.zero perfs;
    clock = Array.map Machine.Cpu.now_exact cpus;
    busy = Array.map Machine.Perf.cycles_exact perfs;
    coherence = sum Machine.Perf.coherence_misses;
    bus_stall = sum Machine.Perf.bus_stall_cycles;
    ipis = sum Machine.Perf.ipis_sent;
    steals = Mach.Sched.total_steals sys;
    xmsgs = Mach.Sched.total_xmsgs sys;
    disk_requests = Machine.Disk.requests_served m.Machine.disk;
    page_faults = Mach.Vm.page_faults sys;
    reply_hits = Mach.Ipc.reply_cache_hits sys;
    reply_misses = Mach.Ipc.reply_cache_misses sys;
  }

let diff a b =
  {
    perf = Machine.Perf.diff a.perf b.perf;
    clock = Array.map2 ( -. ) a.clock b.clock;
    busy = Array.map2 ( -. ) a.busy b.busy;
    coherence = a.coherence - b.coherence;
    bus_stall = a.bus_stall - b.bus_stall;
    ipis = a.ipis - b.ipis;
    steals = a.steals - b.steals;
    xmsgs = a.xmsgs - b.xmsgs;
    disk_requests = a.disk_requests - b.disk_requests;
    page_faults = a.page_faults - b.page_faults;
    reply_hits = a.reply_hits - b.reply_hits;
    reply_misses = a.reply_misses - b.reply_misses;
  }

let zero_counters ncpus =
  {
    perf = Machine.Perf.zero;
    clock = Array.make ncpus 0.0;
    busy = Array.make ncpus 0.0;
    coherence = 0;
    bus_stall = 0;
    ipis = 0;
    steals = 0;
    xmsgs = 0;
    disk_requests = 0;
    page_faults = 0;
    reply_hits = 0;
    reply_misses = 0;
  }

(* Sum of the deltas of several runs on machines with the same CPU
   count (one per Table 1 row, say). *)
let accumulate a d =
  {
    perf = add_perf a.perf d.perf;
    clock = Array.map2 ( +. ) a.clock d.clock;
    busy = Array.map2 ( +. ) a.busy d.busy;
    coherence = a.coherence + d.coherence;
    bus_stall = a.bus_stall + d.bus_stall;
    ipis = a.ipis + d.ipis;
    steals = a.steals + d.steals;
    xmsgs = a.xmsgs + d.xmsgs;
    disk_requests = a.disk_requests + d.disk_requests;
    page_faults = a.page_faults + d.page_faults;
    reply_hits = a.reply_hits + d.reply_hits;
    reply_misses = a.reply_misses + d.reply_misses;
  }

(* Per CPU, busy (charged) cycles plus idle cycles must equal the clock
   advance.  The machine does not count idle time, so idle is the
   remainder and the sum holds by construction; what binds is that idle
   is never negative (nothing charges cycles without moving the clock)
   and that the two readings of the charged cycles, the rounded snapshot
   and the exact accumulators, agree. *)
let check_busy_idle ~what d =
  let problems = ref [] in
  Array.iteri
    (fun i clock ->
      if clock -. d.busy.(i) < -0.5 then
        problems :=
          Printf.sprintf "%s: cpu%d charged %.0f cycles but its clock advanced %.0f"
            what i d.busy.(i) clock
          :: !problems)
    d.clock;
  let busy = Array.fold_left ( +. ) 0.0 d.busy in
  if Float.abs (busy -. float_of_int d.perf.Machine.Perf.cycles)
     > float_of_int (Array.length d.busy)
  then
    problems :=
      Printf.sprintf "%s: cycle snapshot %d disagrees with accumulators %.0f"
        what d.perf.Machine.Perf.cycles busy
      :: !problems;
  !problems

let rate num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* The machine and kernel per-layer metrics of a counter delta. *)
let machine_metrics d =
  let p = d.perf in
  let busy = Array.fold_left ( +. ) 0.0 d.busy in
  let clock = Array.fold_left ( +. ) 0.0 d.clock in
  let open Machine.Perf in
  [
    metric "machine.icache_miss_rate" "ratio"
      (rate p.icache_misses (p.icache_hits + p.icache_misses));
    metric "machine.dcache_miss_rate" "ratio"
      (rate p.dcache_misses (p.dcache_hits + p.dcache_misses));
    metric "machine.tlb_misses" "count" (float_of_int p.tlb_misses);
    metric "machine.cpi" "cycles/instr" (rate p.cycles p.instructions);
    metric "machine.instructions" "count" (float_of_int p.instructions);
    metric "machine.busy_mcycles" "Mcycles" (busy /. 1e6);
    metric "machine.idle_mcycles" "Mcycles" ((clock -. busy) /. 1e6);
    metric "machine.coherence_misses" "count" (float_of_int d.coherence);
    metric "machine.bus_stall_cycles" "cycles" (float_of_int d.bus_stall);
    metric "machine.bus_cycles" "cycles" (float_of_int p.bus_cycles);
    metric "machine.ipis" "count" (float_of_int d.ipis);
    metric "drivers.disk_requests" "count" (float_of_int d.disk_requests);
    metric "drivers.interrupts" "count" (float_of_int p.interrupts);
    metric "mach.steals" "count" (float_of_int d.steals);
    metric "mach.xmsgs" "count" (float_of_int d.xmsgs);
    metric "mach.as_switches" "count" (float_of_int p.address_space_switches);
    metric "mach.page_faults" "count" (float_of_int d.page_faults);
    metric "mach.reply_cache_hit_rate" "ratio"
      (rate d.reply_hits (d.reply_hits + d.reply_misses));
  ]

(* ---- latency samples ------------------------------------------------- *)

type samples = { mutable xs : int list; mutable n : int }

let samples () = { xs = []; n = 0 }

let note s x =
  s.xs <- x :: s.xs;
  s.n <- s.n + 1

(* p50 and p99 in kcycles.  [latency_problems] fails a run with fewer
   than 1000 samples, so that at least ten lie beyond the p99. *)
let latency_metrics s =
  let a = Stat.sorted_of_list s.xs in
  [
    metric "lat_p50_kcycles" "kcycles" (float_of_int (Stat.percentile a 0.50) /. 1e3);
    metric "lat_p99_kcycles" "kcycles" (float_of_int (Stat.percentile a 0.99) /. 1e3);
  ]

let latency_problems ~what s =
  if s.n < 1000 then
    [ Printf.sprintf "%s: %d latency samples, fewer than 1000" what s.n ]
  else []

(* Per-operation mean cost table: op -> (count, total cycles). *)
type op_costs = (string, int * int) Hashtbl.t

let op_costs () : op_costs = Hashtbl.create 16

let add_cost (t : op_costs) op dt =
  let n, sum = Option.value ~default:(0, 0) (Hashtbl.find_opt t op) in
  Hashtbl.replace t op (n + 1, sum + dt)

let mean_kcycles (t : op_costs) op =
  match Hashtbl.find_opt t op with
  | Some (n, sum) when n > 0 -> float_of_int sum /. float_of_int n /. 1e3
  | _ -> 0.0

let count (t : op_costs) op =
  match Hashtbl.find_opt t op with Some (n, _) -> n | None -> 0

let total_count (t : op_costs) = Hashtbl.fold (fun _ (n, _) acc -> acc + n) t 0
