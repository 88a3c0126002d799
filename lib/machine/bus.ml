(* The shared memory bus.  One instance is shared by every CPU of a
   machine; with a single CPU it is completely inert (every entry point
   returns immediately), so the uniprocessor cost model is bit-for-bit
   what it was before SMP existed.

   Two effects are modelled, both deliberately simple and deterministic:

   - {b occupancy}: the bus moves a bounded number of bus cycles per
     unit of time.  Demand is accounted into fixed windows of the cycle
     clock; while a window's aggregate demand stays under its capacity
     the write buffers and the arbiter hide everything, and once a
     window oversubscribes, each further transaction stalls for the
     capacity it could not get.  Window accounting is insensitive to
     the order CPUs replay their time slices in (the conservative
     scheduler interleaves whole slices, so a lagging CPU may issue a
     transaction with an earlier clock than one already booked — an
     absolute busy-until timeline would misread that skew as a stall).

   - {b coherence}: a write-invalidate directory of last writers, one
     entry per cache line.  A CPU touching a line that another CPU wrote
     since it last held it pays a cache-to-cache transfer (the snoop
     hit); a read leaves the line shared-clean, a write takes ownership.

   The directory is host-side bookkeeping (an int-keyed table over line
   addresses); it charges nothing on a 1-CPU machine and is never
   consulted there. *)

(* Capacity window: aggregate demand accounting quantum.  Big enough
   that one CPU's burst (a message copy is ~0.5 K bus cycles) does not
   oversubscribe a window on its own, small enough that saturation
   registers promptly. *)
let window = 8192.
let capacity = int_of_float window  (* bus cycles per window *)

(* The host-side int -> int tables of the directory and the occupancy
   windows: open addressing with linear probing over non-negative keys.
   A lookup neither allocates nor raises; only growing the table does.
   Keys are never removed (the directory forgets a writer by storing
   -1), so probing needs no tombstones. *)
module Itbl = struct
  type t = { mutable keys : int array; mutable vals : int array; mutable used : int }

  let create n = { keys = Array.make n (-1); vals = Array.make n 0; used = 0 }

  (* line addresses are multiples of the line size: multiply and keep
     high bits, so their all-zero low bits still spread over the table *)
  let home keys k = ((k * 0x2545F4914F6CDD1D) lsr 24) land (Array.length keys - 1)

  let rec slot keys k i =
    let k' = keys.(i) in
    if k' = k || k' < 0 then i else slot keys k ((i + 1) land (Array.length keys - 1))

  let find t k ~default =
    let i = slot t.keys k (home t.keys k) in
    if t.keys.(i) = k then t.vals.(i) else default

  let rec replace t k v =
    let i = slot t.keys k (home t.keys k) in
    if t.keys.(i) = k then t.vals.(i) <- v
    else if 2 * (t.used + 1) > Array.length t.keys then begin
      let keys = t.keys and vals = t.vals in
      t.keys <- Array.make (2 * Array.length keys) (-1);
      t.vals <- Array.make (2 * Array.length keys) 0;
      t.used <- 0;
      for j = 0 to Array.length keys - 1 do
        if keys.(j) >= 0 then replace t keys.(j) vals.(j)
      done;
      replace t k v
    end
    else begin
      t.keys.(i) <- k;
      t.vals.(i) <- v;
      t.used <- t.used + 1
    end

  let reset t =
    Array.fill t.keys 0 (Array.length t.keys) (-1);
    t.used <- 0
end

type t = {
  ncpus : int;
  occupied : Itbl.t;  (* window index -> bus cycles booked *)
  writers : Itbl.t;  (* line address -> last-writing cpu, -1 = none *)
  mutable transactions : int;
  mutable contended : int;  (* transactions that found the bus busy *)
}

let create ~ncpus =
  if ncpus < 1 then invalid_arg "Bus.create: need at least one CPU";
  {
    ncpus;
    occupied = Itbl.create (if ncpus > 1 then 1024 else 1);
    writers = Itbl.create (if ncpus > 1 then 4096 else 1);
    transactions = 0;
    contended = 0;
  }

let ncpus t = t.ncpus
let transactions t = t.transactions
let contended t = t.contended

(* Book [bus_cycles] of demand into window [window_index] (the one
   holding the requesting CPU's clock); returns the stall the CPU must
   absorb.  Demand under the window's capacity is free; the overflow a
   transaction pushes past capacity comes back as its stall, so total
   stall in a window telescopes to exactly (demand - capacity).  Demand
   is a whole number of bus cycles, so it is booked as an int.
   Uniprocessor machines never stall and never book demand. *)
let acquire t ~window_index ~bus_cycles =
  if t.ncpus = 1 then 0
  else begin
    t.transactions <- t.transactions + 1;
    let before = Itbl.find t.occupied window_index ~default:0 in
    Itbl.replace t.occupied window_index (before + bus_cycles);
    let stall =
      max 0 (before + bus_cycles - capacity) - max 0 (before - capacity)
    in
    if stall > 0 then t.contended <- t.contended + 1;
    stall
  end

(* Coherence directory.  [note_access] returns [true] when the access is
   a coherence miss: the line's last writer is a different CPU, so the
   local copy (if any) is stale and the data crosses the bus. *)
let note_access t ~cpu ~line ~write =
  if t.ncpus = 1 then false
  else
    let writer = Itbl.find t.writers line ~default:(-1) in
    let miss = writer >= 0 && writer <> cpu in
    (if write && writer <> cpu then Itbl.replace t.writers line cpu
     else if miss then
       (* read of a dirty remote line: the transfer leaves it shared
          clean, so the next reader pays nothing *)
       Itbl.replace t.writers line (-1));
    miss

let reset t =
  Itbl.reset t.occupied;
  Itbl.reset t.writers;
  t.transactions <- 0;
  t.contended <- 0
