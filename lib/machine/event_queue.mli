(** Discrete-event queue keyed on cycle time.

    Devices schedule completions here; the kernel scheduler advances the
    CPU clock to the next event when every thread is blocked. *)

type t

val create : unit -> t

val schedule : t -> at:int -> (unit -> unit) -> unit
(** Enqueue an event to fire at absolute cycle [at]. *)

val next_time : t -> int option
(** Earliest pending event time, if any. *)

val run_due : t -> now:int -> int
(** Fire every event with time <= [now], in time order (FIFO within a
    time).  Returns the number of events fired.  Events may schedule
    further events; those are honoured within the same call if due. *)
