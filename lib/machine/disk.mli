(** Simulated block storage device.

    Holds real block contents (so the file systems above it have genuine
    on-disk layouts) and models service time as seek + per-block transfer.
    Requests are serviced in FIFO order.  Starting a request also takes
    the queued requests of the same kind whose blocks continue it (up to
    the first barrier or gap) and serves them as one transfer: one
    positioning cost plus the transfer time of every block.  Each write
    of the run still reaches the media on its own, in FIFO order.
    Completion raises the device's interrupt line once and then invokes
    each request's continuation in order.  DMA transfer bus traffic is
    charged on completion. *)

type t

type geometry = {
  blocks : int;
  block_size : int;
  seek_cycles : int;  (** fixed positioning cost per request *)
  transfer_cycles_per_block : int;
}

val default_geometry : geometry
(** 20 MB at 512-byte blocks with early-1990s service times. *)

val create :
  Cpu.t -> Event_queue.t -> Irq.t -> line:int -> name:string -> geometry -> t

val name : t -> string
val geometry : t -> geometry

val read : t -> block:int -> count:int -> (bytes -> unit) -> unit
(** Asynchronous read of [count] blocks starting at [block]; the
    continuation receives the data when the simulated transfer completes.
    @raise Invalid_argument on out-of-range requests. *)

val write : t -> block:int -> bytes -> (unit -> unit) -> unit
(** Asynchronous write; [bytes] must be a whole number of blocks. *)

val read_now : t -> block:int -> count:int -> bytes
(** Synchronous, zero-cost peek for tests and mkfs-style tools. *)

val write_now : t -> block:int -> bytes -> unit
(** Dropped silently while the device is powered off. *)

val barrier : t -> (unit -> unit) -> unit
(** Cache-flush command: completes once every previously submitted
    request has reached the media, forcing any reorder-held writes to
    land first.  Completes immediately when the device is idle. *)

(** Decision an installed write interceptor returns for one write
    request as it reaches the media.  The [int] payloads are raw
    entropy from the fault plan's PRNG; the disk maps them into range. *)
type write_fault =
  | Wf_pass
  | Wf_power_cut
      (** freeze the store: this write and all later ones are lost *)
  | Wf_torn of int  (** only a prefix of the write lands *)
  | Wf_bit_rot of int  (** the write lands, then one bit flips *)
  | Wf_reorder of int
      (** hold the write past this many later writes (or the next barrier) *)

val set_write_interceptor :
  t -> (block:int -> data:bytes -> write_fault) option -> unit
(** Installed by the driver layer to route media writes through a fault
    plan.  Consulted at apply time, in FIFO order.  Not consulted for
    [write_now] (mkfs-style tooling) or while powered off. *)

val power_restore : t -> unit
val powered_on : t -> bool

val writes_applied : t -> int
(** Number of write requests that reached the media while powered —
    the crash-point index space for recovery enumeration. *)

val requests_served : t -> int
(** Transfers completed: a run of merged requests counts once. *)

val busy : t -> bool
