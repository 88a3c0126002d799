type geometry = {
  blocks : int;
  block_size : int;
  seek_cycles : int;
  transfer_cycles_per_block : int;
}

(* What a write interceptor may decide about one write request as it
   reaches the media.  The disk itself knows nothing about fault plans;
   the driver layer installs an interceptor that consults one. *)
type write_fault =
  | Wf_pass
  | Wf_power_cut  (* this write and everything after it is lost *)
  | Wf_torn of int  (* entropy: only a prefix of the sectors land *)
  | Wf_bit_rot of int  (* entropy: one bit of the landed data flips *)
  | Wf_reorder of int  (* hold the write past this many later writes *)

type request =
  | Read of { block : int; count : int; k : bytes -> unit }
  | Write of { block : int; data : bytes; k : unit -> unit }
  | Barrier of { k : unit -> unit }

(* a reordered write waiting to land: countdown in later write events *)
type held = { mutable h_ttl : int; h_block : int; h_data : bytes }

type t = {
  cpu : Cpu.t;
  events : Event_queue.t;
  irq : Irq.t;
  line : int;
  name : string;
  geometry : geometry;
  store : bytes array;  (* the media image in [chunk]-byte pieces *)
  queue : request Queue.t;  (* waiting behind the busy request, FIFO *)
  mutable busy : bool;
  mutable served : int;
  mutable pending_completion : (unit -> unit) option;
  mutable interceptor : (block:int -> data:bytes -> write_fault) option;
  mutable powered : bool;
  mutable held : held list;  (* oldest first *)
  mutable writes_applied : int;  (* write events observed while powered *)
}

let chunk = 65536

let default_geometry =
  {
    blocks = 40960;
    block_size = 512;
    (* ~3 ms positioning + ~60 us/block at 133 MHz *)
    seek_cycles = 400_000;
    transfer_cycles_per_block = 8_000;
  }

let create cpu events irq ~line ~name geometry =
  let t =
    {
      cpu;
      events;
      irq;
      line;
      name;
      geometry;
      store =
        Array.make
          (((geometry.blocks * geometry.block_size) + chunk - 1) / chunk)
          Bytes.empty;
      queue = Queue.create ();
      busy = false;
      served = 0;
      pending_completion = None;
      interceptor = None;
      powered = true;
      held = [];
      writes_applied = 0;
    }
  in
  Irq.register irq ~line ~name (fun () ->
      match t.pending_completion with
      | Some k ->
          t.pending_completion <- None;
          k ()
      | None -> ());
  t

let name t = t.name
let geometry t = t.geometry

let check t ~block ~count =
  if block < 0 || count <= 0 || block + count > t.geometry.blocks then
    invalid_arg
      (Printf.sprintf "Disk.%s: request %d+%d out of range (%d blocks)"
         t.name block count t.geometry.blocks)

let request_cycles t count =
  t.geometry.seek_cycles + (count * t.geometry.transfer_cycles_per_block)

let blocks_of_request t = function
  | Read { count; _ } -> count
  | Write { data; _ } -> Bytes.length data / t.geometry.block_size
  | Barrier _ -> 0

(* --- the media image ----------------------------------------------------- *)
(* A chunk is allocated on the first write of a non-zero byte to it; an
   empty chunk reads as zeros.  A fresh disk then costs the host nothing
   until its blocks are written, and a read sees exactly the bytes a flat
   image would hold. *)

let rec all_zero data i stop =
  i >= stop || (Bytes.get data i = '\000' && all_zero data (i + 1) stop)

let blit_in t ~pos data ~off ~len =
  let rec go pos off len =
    if len > 0 then begin
      let c = pos / chunk and o = pos mod chunk in
      let n = min len (chunk - o) in
      if Bytes.length t.store.(c) = 0 && not (all_zero data off (off + n)) then
        t.store.(c) <- Bytes.make chunk '\000';
      if Bytes.length t.store.(c) > 0 then Bytes.blit data off t.store.(c) o n;
      go (pos + n) (off + n) (len - n)
    end
  in
  go pos off len

let sub t ~pos ~len =
  let out = Bytes.make len '\000' in
  let rec go p =
    if p < pos + len then begin
      let c = p / chunk and o = p mod chunk in
      let n = min (pos + len - p) (chunk - o) in
      if Bytes.length t.store.(c) > 0 then Bytes.blit t.store.(c) o out (p - pos) n;
      go (p + n)
    end
  in
  go pos;
  out

(* --- media application, with the interceptor in the path ----------------- *)

let land_write t ~block data =
  blit_in t ~pos:(block * t.geometry.block_size) data ~off:0 ~len:(Bytes.length data)

let release_held t =
  let ready = t.held in
  t.held <- [];
  if t.powered then List.iter (fun h -> land_write t ~block:h.h_block h.h_data) ready

(* age every held write by one write event; those past their window land *)
let tick_held t =
  List.iter (fun h -> h.h_ttl <- h.h_ttl - 1) t.held;
  let ready, still = List.partition (fun h -> h.h_ttl <= 0) t.held in
  t.held <- still;
  if t.powered then List.iter (fun h -> land_write t ~block:h.h_block h.h_data) ready

(* One write request reaching the media, in FIFO order.  Power loss
   freezes the store: the write (and every later one) is dropped, though
   the request still completes — the machine lost power, not the
   simulation's event plumbing. *)
let apply_write t ~block data =
  if t.powered then begin
    t.writes_applied <- t.writes_applied + 1;
    let fault =
      match t.interceptor with
      | None -> Wf_pass
      | Some f -> f ~block ~data
    in
    (match fault with
    | Wf_pass -> land_write t ~block data
    | Wf_power_cut ->
        t.powered <- false;
        t.held <- []
    | Wf_torn r ->
        (* a prefix of the write lands, torn at a 4-byte granule *)
        let len = Bytes.length data in
        let keep = r mod (len / 4) * 4 in
        if keep > 0 then
          blit_in t ~pos:(block * t.geometry.block_size) data ~off:0 ~len:keep
    | Wf_bit_rot r ->
        land_write t ~block data;
        let bit = r mod (Bytes.length data * 8) in
        let off = (block * t.geometry.block_size) + (bit / 8) in
        let b = sub t ~pos:off ~len:1 in
        Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor (1 lsl (bit mod 8))));
        blit_in t ~pos:off b ~off:0 ~len:1
    | Wf_reorder n ->
        t.held <-
          t.held @ [ { h_ttl = max 1 n; h_block = block; h_data = Bytes.copy data } ]);
    if t.powered then tick_held t
  end

let rec start t req =
  t.busy <- true;
  let done_at = Cpu.now t.cpu + request_cycles t (blocks_of_request t req) in
  Event_queue.schedule t.events ~at:done_at (fun () -> complete t req)

and complete t req =
  let bs = t.geometry.block_size in
  let finish k =
    t.served <- t.served + 1;
    (* DMA moved [blocks] of data across the bus during the transfer *)
    let words = blocks_of_request t req * bs / 4 in
    Perf.add_bus_cycles (Cpu.perf t.cpu) (words / 8);
    t.pending_completion <- Some k;
    Irq.raise_line t.irq t.line;
    t.busy <- false;
    match Queue.take_opt t.queue with None -> () | Some next -> start t next
  in
  match req with
  | Read { block; count; k } ->
      let data = sub t ~pos:(block * bs) ~len:(count * bs) in
      finish (fun () -> k data)
  | Write { block; data; k } ->
      apply_write t ~block data;
      finish k
  | Barrier { k } ->
      release_held t;
      finish k

let submit t req =
  if t.busy then Queue.add req t.queue else start t req

let read t ~block ~count k =
  check t ~block ~count;
  submit t (Read { block; count; k })

let write t ~block data k =
  let bs = t.geometry.block_size in
  if Bytes.length data = 0 || Bytes.length data mod bs <> 0 then
    invalid_arg "Disk.write: data must be a whole number of blocks";
  check t ~block ~count:(Bytes.length data / bs);
  submit t (Write { block; data; k })

let barrier t k =
  if t.busy || not (Queue.is_empty t.queue) then submit t (Barrier { k })
  else begin
    (* idle disk: the flush has nothing to wait for *)
    release_held t;
    k ()
  end

let read_now t ~block ~count =
  check t ~block ~count;
  sub t ~pos:(block * t.geometry.block_size) ~len:(count * t.geometry.block_size)

let write_now t ~block data =
  let bs = t.geometry.block_size in
  if Bytes.length data = 0 || Bytes.length data mod bs <> 0 then
    invalid_arg "Disk.write_now: data must be a whole number of blocks";
  check t ~block ~count:(Bytes.length data / bs);
  if t.powered then blit_in t ~pos:(block * bs) data ~off:0 ~len:(Bytes.length data)

let set_write_interceptor t f = t.interceptor <- f

let power_cut t =
  t.powered <- false;
  t.held <- []

let power_restore t = t.powered <- true
let powered_on t = t.powered
let writes_applied t = t.writes_applied
let requests_served t = t.served
let busy t = t.busy || not (Queue.is_empty t.queue)
