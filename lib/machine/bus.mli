(** The shared memory bus of an SMP machine.

    All CPUs of one {!Machine.t} share one bus.  It models transaction
    occupancy (bounded bus cycles per window of the cycle clock; demand
    past a window's capacity comes back as stall) and write-invalidate
    coherence
    (a directory of last writers per cache line; touching a line another
    CPU wrote costs a cache-to-cache transfer).

    On a 1-CPU machine every entry point is inert — no stalls, no
    directory, no counters — so uniprocessor measurements are identical
    to the pre-SMP cost model. *)

type t

val create : ncpus:int -> t
(** @raise Invalid_argument when [ncpus < 1]. *)

val ncpus : t -> int

val window : float
(** Length of a capacity window in cycles of the CPU clock; a window also
    holds this many bus cycles of demand. *)

val acquire : t -> window_index:int -> bus_cycles:int -> int
(** [acquire t ~window_index ~bus_cycles] books a transaction of
    [bus_cycles] issued at CPU-clock [now], where [window_index] is
    [int_of_float (now /. window)], and returns the stall cycles the
    issuing CPU must absorb: zero while that capacity window has
    bandwidth left, the unmet overflow once the window oversubscribes
    (and always 0 on a 1-CPU machine).  The caller computes the index so
    that no float crosses the call. *)

val note_access : t -> cpu:int -> line:int -> write:bool -> bool
(** Record a data access to [line] (a line-aligned address) by [cpu];
    [true] when it is a coherence miss — the line's last writer was a
    different CPU.  Writes take ownership; reads leave the line shared.
    Always [false] on a 1-CPU machine. *)

val transactions : t -> int
(** Bus transactions arbitrated (multi-CPU machines only). *)

val contended : t -> int
(** Transactions that found the bus busy and stalled. *)

val reset : t -> unit
(** Forget reservations and ownership (cold-start measurement aid). *)
