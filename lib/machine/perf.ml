(* The float accumulators live in their own all-float record, which OCaml
   stores unboxed: adding to a float field of a mixed record allocates a
   fresh box on every charge. *)
type clocks = { mutable cycles : float; mutable bus_stall_cycles : float }

type t = {
  mutable instructions : int;
  clocks : clocks;
  mutable bus_cycles : int;
  mutable icache_hits : int;
  mutable icache_misses : int;
  mutable dcache_hits : int;
  mutable dcache_misses : int;
  mutable tlb_misses : int;
  mutable address_space_switches : int;
  mutable tlb_shootdowns : int;
  mutable interrupts : int;
  (* SMP counters: kept outside [snapshot] (like [tlb_shootdowns]) so
     single-CPU windowed measurements stay byte-identical to pre-SMP. *)
  mutable coherence_misses : int;
  mutable ipis_sent : int;
  mutable ipis_received : int;
}

type snapshot = {
  instructions : int;
  cycles : int;
  bus_cycles : int;
  icache_hits : int;
  icache_misses : int;
  dcache_hits : int;
  dcache_misses : int;
  tlb_misses : int;
  address_space_switches : int;
  interrupts : int;
}

let create () : t =
  {
    instructions = 0;
    clocks = { cycles = 0.; bus_stall_cycles = 0. };
    bus_cycles = 0;
    icache_hits = 0;
    icache_misses = 0;
    dcache_hits = 0;
    dcache_misses = 0;
    tlb_misses = 0;
    address_space_switches = 0;
    tlb_shootdowns = 0;
    interrupts = 0;
    coherence_misses = 0;
    ipis_sent = 0;
    ipis_received = 0;
  }

let zero =
  {
    instructions = 0;
    cycles = 0;
    bus_cycles = 0;
    icache_hits = 0;
    icache_misses = 0;
    dcache_hits = 0;
    dcache_misses = 0;
    tlb_misses = 0;
    address_space_switches = 0;
    interrupts = 0;
  }

let add_instructions (t : t) n = t.instructions <- t.instructions + n
(* No float crosses these calls: a float argument to a call the compiler
   does not inline is boxed, and the CPU calls them per line touched. *)
let add_cycles (t : t) n = t.clocks.cycles <- t.clocks.cycles +. float_of_int n

let add_cycles_scaled (t : t) n k =
  t.clocks.cycles <- t.clocks.cycles +. (float_of_int n *. k)

let add_bus_cycles (t : t) n = t.bus_cycles <- t.bus_cycles + n

let icache_access (t : t) ~hit =
  if hit then t.icache_hits <- t.icache_hits + 1
  else t.icache_misses <- t.icache_misses + 1

let dcache_access (t : t) ~hit =
  if hit then t.dcache_hits <- t.dcache_hits + 1
  else t.dcache_misses <- t.dcache_misses + 1

let tlb_miss (t : t) = t.tlb_misses <- t.tlb_misses + 1

let address_space_switch (t : t) =
  t.address_space_switches <- t.address_space_switches + 1

let tlb_shootdown (t : t) = t.tlb_shootdowns <- t.tlb_shootdowns + 1
let tlb_shootdowns (t : t) = t.tlb_shootdowns

let coherence_miss (t : t) = t.coherence_misses <- t.coherence_misses + 1
let coherence_misses (t : t) = t.coherence_misses

let bus_stall (t : t) cycles =
  t.clocks.bus_stall_cycles <- t.clocks.bus_stall_cycles +. float_of_int cycles

let bus_stall_cycles (t : t) = int_of_float (Float.round t.clocks.bus_stall_cycles)

let ipi_sent (t : t) = t.ipis_sent <- t.ipis_sent + 1
let ipis_sent (t : t) = t.ipis_sent
let ipi_received (t : t) = t.ipis_received <- t.ipis_received + 1
let ipis_received (t : t) = t.ipis_received

let interrupt (t : t) = t.interrupts <- t.interrupts + 1

(* Cycle totals accumulate in float (sub-cycle store penalties); reads
   round to nearest so truncation can't bias repeated snapshot diffs. *)
let snapshot (t : t) : snapshot =
  {
    instructions = t.instructions;
    cycles = int_of_float (Float.round t.clocks.cycles);
    bus_cycles = t.bus_cycles;
    icache_hits = t.icache_hits;
    icache_misses = t.icache_misses;
    dcache_hits = t.dcache_hits;
    dcache_misses = t.dcache_misses;
    tlb_misses = t.tlb_misses;
    address_space_switches = t.address_space_switches;
    interrupts = t.interrupts;
  }

let diff a b =
  {
    instructions = a.instructions - b.instructions;
    cycles = a.cycles - b.cycles;
    bus_cycles = a.bus_cycles - b.bus_cycles;
    icache_hits = a.icache_hits - b.icache_hits;
    icache_misses = a.icache_misses - b.icache_misses;
    dcache_hits = a.dcache_hits - b.dcache_hits;
    dcache_misses = a.dcache_misses - b.dcache_misses;
    tlb_misses = a.tlb_misses - b.tlb_misses;
    address_space_switches = a.address_space_switches - b.address_space_switches;
    interrupts = a.interrupts - b.interrupts;
  }

let cpi s =
  if s.instructions = 0 then nan
  else float_of_int s.cycles /. float_of_int s.instructions

let cycles (t : t) = int_of_float (Float.round t.clocks.cycles)
let cycles_exact (t : t) = t.clocks.cycles

let pp ppf s =
  Format.fprintf ppf
    "@[<v>instructions %d@ cycles %d@ bus cycles %d@ CPI %.2f@ I$ %d/%d \
     hit/miss@ D$ %d/%d hit/miss@ TLB misses %d@ AS switches %d@ \
     interrupts %d@]"
    s.instructions s.cycles s.bus_cycles (cpi s) s.icache_hits
    s.icache_misses s.dcache_hits s.dcache_misses s.tlb_misses
    s.address_space_switches s.interrupts
