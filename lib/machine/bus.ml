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

   The directory is host-side bookkeeping indexed directly by line
   address; it charges nothing on a 1-CPU machine and is never
   consulted there. *)

(* Capacity window: aggregate demand accounting quantum.  Big enough
   that one CPU's burst (a message copy is ~0.5 K bus cycles) does not
   oversubscribe a window on its own, small enough that saturation
   registers promptly. *)
let window = 8192.
let capacity = int_of_float window  (* bus cycles per window *)

(* The host-side int -> int table of the occupancy windows: open
   addressing with linear probing over non-negative keys.  Keys are
   never removed, so probing needs no tombstones.  CPUs replay whole
   time slices, so consecutive transactions almost always book the same
   window: the table remembers the last slot it handed out and answers
   a repeat without probing.  Growing or resetting the table drops that
   memo.  A lookup neither allocates nor raises; only growing does. *)
module Itbl = struct
  type t = {
    mutable keys : int array;
    mutable vals : int array;
    mutable used : int;
    mutable last_key : int;  (* key of [last_slot], -1 = no memo *)
    mutable last_slot : int;
  }

  let create n =
    { keys = Array.make n (-1); vals = Array.make n 0; used = 0; last_key = -1; last_slot = 0 }

  (* window indices are consecutive: multiply and keep high bits, so
     neighbours spread over the table *)
  let home keys k = ((k * 0x2545F4914F6CDD1D) lsr 24) land (Array.length keys - 1)

  (* The slot holding [k], or the empty slot where it belongs. *)
  let probe keys k =
    let mask = Array.length keys - 1 in
    let i = ref (home keys k) in
    while
      let k' = keys.(!i) in
      k' <> k && k' >= 0
    do
      i := (!i + 1) land mask
    done;
    !i

  let grow t =
    let keys = t.keys and vals = t.vals in
    t.keys <- Array.make (2 * Array.length keys) (-1);
    t.vals <- Array.make (2 * Array.length keys) 0;
    t.last_key <- -1;
    for j = 0 to Array.length keys - 1 do
      if keys.(j) >= 0 then begin
        let i = probe t.keys keys.(j) in
        t.keys.(i) <- keys.(j);
        t.vals.(i) <- vals.(j)
      end
    done

  (* The slot holding [k]; an absent key is inserted with value 0. *)
  let rec slot t k =
    if k = t.last_key then t.last_slot
    else begin
      let i = probe t.keys k in
      if t.keys.(i) = k then begin
        t.last_key <- k;
        t.last_slot <- i;
        i
      end
      else if 2 * (t.used + 1) > Array.length t.keys then begin
        grow t;
        slot t k
      end
      else begin
        t.keys.(i) <- k;
        t.vals.(i) <- 0;
        t.used <- t.used + 1;
        t.last_key <- k;
        t.last_slot <- i;
        i
      end
    end

  let reset t =
    Array.fill t.keys 0 (Array.length t.keys) (-1);
    t.used <- 0;
    t.last_key <- -1
end

(* The coherence directory: the last writer of every line, stored as
   one byte (writer + 1, 0 = none) per line.  A leaf holds the bytes of
   the lines in one 4 KB block of address space; [dir] maps a block
   number to its leaf.  Blocks nobody has written share the all-zero
   [no_writer] leaf, which is never written: the first write into a
   block gives it a leaf of its own, and a write past the end of [dir]
   grows it. *)
let leaf_bits = 12

type t = {
  ncpus : int;
  occupied : Itbl.t;  (* window index -> bus cycles booked *)
  line_bits : int;  (* log2 of the cache line size *)
  no_writer : Bytes.t;
  mutable dir : Bytes.t array;  (* 4 KB block -> leaf *)
  mutable transactions : int;
}

let create ~ncpus (c : Config.t) =
  if ncpus < 1 then invalid_arg "Bus.create: need at least one CPU";
  (* a directory byte holds writer + 1 *)
  if ncpus > 255 then invalid_arg "Bus.create: at most 255 CPUs";
  let line = c.Config.dcache.Config.line in
  let rec log2 b = if 1 lsl b >= line then b else log2 (b + 1) in
  let line_bits = log2 0 in
  if 1 lsl line_bits <> line || line_bits > leaf_bits then
    invalid_arg "Bus.create: line size is not a power of two up to 4 KB";
  let no_writer = Bytes.make (1 lsl (leaf_bits - line_bits)) '\000' in
  let blocks = if ncpus > 1 then Int.max 1 (c.Config.memory_bytes lsr leaf_bits) else 0 in
  {
    ncpus;
    occupied = Itbl.create (if ncpus > 1 then 1024 else 1);
    line_bits;
    no_writer;
    dir = Array.make blocks no_writer;
    transactions = 0;
  }

let ncpus t = t.ncpus
let transactions t = t.transactions
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
    let occ = t.occupied in
    let i = Itbl.slot occ window_index in
    let before = occ.Itbl.vals.(i) in
    occ.Itbl.vals.(i) <- before + bus_cycles;
    Int.max 0 (before + bus_cycles - capacity) - Int.max 0 (before - capacity)
  end

(* The leaf of [block], made private (and [dir] grown) for a write. *)
let own_leaf t block =
  if block >= Array.length t.dir then begin
    let n = ref (Int.max 1 (2 * Array.length t.dir)) in
    while !n <= block do
      n := 2 * !n
    done;
    let dir = Array.make !n t.no_writer in
    Array.blit t.dir 0 dir 0 (Array.length t.dir);
    t.dir <- dir
  end;
  let leaf = t.dir.(block) in
  if leaf != t.no_writer then leaf
  else begin
    let leaf = Bytes.make (Bytes.length t.no_writer) '\000' in
    t.dir.(block) <- leaf;
    leaf
  end

(* Coherence directory.  [note_access] returns [true] when the access is
   a coherence miss: the line's last writer is a different CPU, so the
   local copy (if any) is stale and the data crosses the bus. *)
let note_access t ~cpu ~line ~write =
  if t.ncpus = 1 then false
  else begin
    let block = line lsr leaf_bits in
    let leaf = if block < Array.length t.dir then t.dir.(block) else t.no_writer in
    let i = (line land ((1 lsl leaf_bits) - 1)) lsr t.line_bits in
    let writer = Char.code (Bytes.get leaf i) - 1 in
    let miss = writer >= 0 && writer <> cpu in
    (if write && writer <> cpu then
       Bytes.set (own_leaf t block) i (Char.chr (cpu + 1))
     else if miss then
       (* read of a dirty remote line: the transfer leaves it shared
          clean, so the next reader pays nothing *)
       Bytes.set leaf i '\000');
    miss
  end

let reset t =
  Itbl.reset t.occupied;
  Array.iter
    (fun leaf -> if leaf != t.no_writer then Bytes.fill leaf 0 (Bytes.length leaf) '\000')
    t.dir;
  t.transactions <- 0;
