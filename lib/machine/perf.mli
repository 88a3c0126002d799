(** Simulated performance counters.

    These mirror the Pentium counter readings the paper uses in Table 2:
    retired instructions, elapsed cycles, bus cycles, plus the cache and
    TLB events that explain them.  Counters accumulate monotonically; use
    {!snapshot} and {!diff} to measure a window, exactly as one programs
    real counter hardware around a measured loop. *)

type t

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

val create : unit -> t

val zero : snapshot

(* Incrementers used by the CPU model. *)

val add_instructions : t -> int -> unit
val add_cycles : t -> int -> unit

val add_cycles_scaled : t -> int -> float -> unit
(** [add_cycles_scaled t n k] adds [float_of_int n *. k] cycles (an
    instruction count times the CPI, say) without building the product
    as a boxed argument. *)

val add_bus_cycles : t -> int -> unit
val icache_access : t -> hit:bool -> unit
val dcache_access : t -> hit:bool -> unit
val tlb_miss : t -> unit
val address_space_switch : t -> unit

val tlb_shootdown : t -> unit
(** Count one remap-driven TLB shootdown (IPI + invalidate round). *)

val tlb_shootdowns : t -> int
(** Shootdowns so far.  Kept outside {!snapshot} — the remap benches
    read it directly rather than through window diffs. *)

(** {2 SMP counters}

    Per-CPU coherence, bus-arbitration and inter-processor-interrupt
    events.  Like {!tlb_shootdowns} they live outside {!snapshot}: the
    SMP benches read them directly, and single-CPU snapshot diffs stay
    byte-identical to the pre-SMP model. *)

val coherence_miss : t -> unit
val coherence_misses : t -> int

val bus_stall : t -> int -> unit
(** Cycles this CPU spent waiting for the shared bus (the cycles also
    land in the ordinary cycle clock via the CPU's charge path). *)

val bus_stall_cycles : t -> int

val ipi_sent : t -> unit
val ipis_sent : t -> int
val ipi_received : t -> unit
val ipis_received : t -> int

val interrupt : t -> unit

val snapshot : t -> snapshot
val diff : snapshot -> snapshot -> snapshot
(** [diff later earlier] is the per-window delta. *)

val cpi : snapshot -> float
(** Cycles per instruction; [nan] when no instructions retired. *)

val cycles : t -> int
(** Current cycle clock (total cycles accumulated, rounded to nearest). *)

val cycles_exact : t -> float
(** The unrounded cycle accumulator. *)

val pp : Format.formatter -> snapshot -> unit
