(** Microbenchmarks: Table 2 (trap vs RPC), the message-passing
    improvement sweep (E3) and the file-server factor (E5). *)

type table2_row = {
  t2_label : string;
  t2_instructions : float;
  t2_cycles : float;
  t2_bus_cycles : float;
  t2_cpi : float;
}

val table2 : ?iters:int -> unit -> table2_row * table2_row
(** [(thread_self, rpc32)] per-operation counter readings on the Pentium
    machine, measured warm exactly as the paper programmed the counter
    hardware. *)

type sweep_point = {
  sw_bytes : int;
  sw_mach_ipc_cycles : float;  (** Mach 3.0 [mach_msg] round trip *)
  sw_ibm_rpc_cycles : float;  (** the rework *)
  sw_improvement : float;
  sw_reply_hits : int;  (** reply-port cache hits on the Mach side *)
  sw_reply_misses : int;
}

val ipc_sweep : ?iters:int -> sizes:int list -> unit -> sweep_point list
(** Round-trip cost by message size through both implementations;
    messages above {!ool_threshold} move their data out of line
    (virtual copy + touch for Mach, by-reference physical copy for the
    rework). *)

val ool_threshold : int

val refilled_message :
  Mach.Sched.t -> Mach.Ktypes.task -> bytes:int -> unit ->
  Mach.Ktypes.message_builder
(** Each call refills the client's reusable buffer and builds a message. *)

val consuming_server : Mach.Sched.t -> Mach.Ktypes.task -> Mach.Ktypes.port -> unit
(** A [mach_msg] server that writes to every out-of-line region it gets. *)

type factor = {
  fx_rpc_cycles_per_op : float;  (** multi-server: file server over RPC *)
  fx_trap_cycles_per_op : float;  (** monolithic: in-kernel file system *)
  fx_factor : float;
}

val fileserver_factor : ?ops:int -> unit -> factor
(** The same warm open/read/write/close mix against the user-level file
    server and against the identical code in-kernel. *)
