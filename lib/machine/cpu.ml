(* All-float, so OCaml stores the clock unboxed: a float field of a mixed
   record is a pointer to a box, and every charge would allocate one. *)
type clock = { mutable time : float }

type t = {
  config : Config.t;
  id : int;  (* processor index within the machine, 0 = boot CPU *)
  bus : Bus.t;  (* shared with every sibling CPU; inert when alone *)
  perf : Perf.t;
  icache : Cache.t;
  dcache : Cache.t;
  tlb : Tlb.t;
  clock : clock;
}

let create ?(id = 0) ?bus (c : Config.t) =
  {
    config = c;
    id;
    bus = (match bus with Some b -> b | None -> Bus.create ~ncpus:1);
    perf = Perf.create ();
    icache = Cache.create c.icache;
    dcache = Cache.create c.dcache;
    tlb = Tlb.create ~entries:c.tlb_entries ~page_size:c.page_size;
    clock = { time = 0. };
  }

let config t = t.config
let id t = t.id
let bus t = t.bus
let perf t = t.perf
let icache t = t.icache
let dcache t = t.dcache
let tlb t = t.tlb

(* The clock accumulates in float so sub-cycle charges (the 0.5-cycle
   store penalty) are never lost; reads round to nearest rather than
   truncate, so repeated read-diff measurements carry no systematic
   downward drift. *)
let now t = int_of_float (Float.round t.clock.time)
let now_exact t = t.clock.time

(* Every charge is a whole number of cycles or an int count times a float
   rate (the CPI, the 0.5-cycle store penalty).  Passing the int and the
   rate rather than their float product keeps the float unboxed, since a
   computed float argument to a call across modules is boxed. *)
let charge t cycles =
  Perf.add_cycles t.perf cycles;
  t.clock.time <- t.clock.time +. float_of_int cycles

let charge_scaled t n k =
  Perf.add_cycles_scaled t.perf n k;
  t.clock.time <- t.clock.time +. (float_of_int n *. k)

let charge_bus t n =
  Perf.add_bus_cycles t.perf n

(* A bus transaction on an SMP machine may find the bus held by a
   sibling CPU; the stall shows up both in the cycle clock and in the
   dedicated counter.  Never called on a 1-CPU machine. *)
let charge_bus_smp t n =
  charge_bus t n;
  let window_index = int_of_float (t.clock.time /. Bus.window) in
  let stall = Bus.acquire t.bus ~window_index ~bus_cycles:n in
  if stall > 0 then begin
    Perf.bus_stall t.perf stall;
    t.clock.time <- t.clock.time +. float_of_int stall;
    Perf.add_cycles t.perf stall
  end

(* Walk the lines of [addr..addr+bytes), consulting [cache]; each miss
   costs a line fill.  TLB is consulted once per page touched.  This is
   the innermost hot path of the whole simulator: it must not allocate.
   The SMP additions (coherence directory, bus arbitration) are guarded
   so a 1-CPU machine runs the exact pre-SMP sequence. *)
let lines_and_pages t cache addr bytes ~is_icache =
  let c = t.config in
  let smp = Bus.ncpus t.bus > 1 in
  let line = if is_icache then c.icache.line else c.dcache.line in
  let first_line = addr / line and last_line = (addr + max bytes 1 - 1) / line in
  for l = first_line to last_line do
    let a = l * line in
    (* Cache.access both probes and installs: after a coherence transfer
       the line lives in this cache too, so it runs unconditionally. *)
    let hit = Cache.access cache a in
    if
      smp && not is_icache
      && Bus.note_access t.bus ~cpu:t.id ~line:a ~write:false
    then begin
      (* another CPU wrote this line since we last held it: whatever the
         local tag said, the copy is stale.  One cache-to-cache transfer
         replaces the memory line fill. *)
      Perf.dcache_access t.perf ~hit:false;
      Perf.coherence_miss t.perf;
      charge t c.coherence_miss_cycles;
      charge_bus_smp t c.line_fill_bus_cycles
    end
    else begin
      if is_icache then Perf.icache_access t.perf ~hit
      else Perf.dcache_access t.perf ~hit;
      if not hit then begin
        charge t c.line_fill_cycles;
        if smp then charge_bus_smp t c.line_fill_bus_cycles
        else charge_bus t c.line_fill_bus_cycles
      end
    end
  done;
  let first_page = addr / c.page_size
  and last_page = (addr + max bytes 1 - 1) / c.page_size in
  for p = first_page to last_page do
    if not (Tlb.access t.tlb (p * c.page_size)) then begin
      Perf.tlb_miss t.perf;
      charge t c.tlb_miss_cycles;
      if smp then charge_bus_smp t c.tlb_miss_bus_cycles
      else charge_bus t c.tlb_miss_bus_cycles
    end
  done

(* Direct execution entry points.  [Footprint.item] lists describe the
   same traffic declaratively, but building them allocates; the kernel
   cost-replay paths (Ktext) call these instead. *)

let fetch t (region : Layout.region) ~offset ~bytes =
  if offset + bytes > region.Layout.size then
    invalid_arg
      (Printf.sprintf "Cpu.fetch: %d+%d exceeds region %S (%d bytes)" offset
         bytes region.Layout.name region.Layout.size);
  let c = t.config in
  let addr = region.Layout.base + offset in
  let instructions = max 1 (bytes / c.bytes_per_instruction) in
  Perf.add_instructions t.perf instructions;
  charge_scaled t instructions c.base_cpi;
  lines_and_pages t t.icache addr bytes ~is_icache:true

let load t ~addr ~bytes = lines_and_pages t t.dcache addr bytes ~is_icache:false

let store t ~addr ~bytes =
  lines_and_pages t t.dcache addr bytes ~is_icache:false;
  (* write-through: every stored word is a bus write *)
  let c = t.config in
  let words = max 1 ((bytes + 3) / 4) in
  if Bus.ncpus t.bus > 1 then begin
    (* take ownership of every written line in the coherence directory;
       sibling CPUs holding these lines will pay a transfer next touch *)
    let line = c.dcache.line in
    let first_line = addr / line
    and last_line = (addr + max bytes 1 - 1) / line in
    for l = first_line to last_line do
      ignore (Bus.note_access t.bus ~cpu:t.id ~line:(l * line) ~write:true : bool)
    done;
    charge_bus_smp t (words * c.write_bus_cycles)
  end
  else charge_bus t (words * c.write_bus_cycles);
  charge_scaled t words 0.5

(* A remap that edits live mappings must invalidate stale translations
   before either side runs again.  Priced as one IPI-class operation
   (same order as an address-space switch) plus a short per-page
   [invlpg]; deliberately independent of the bytes remapped. *)
let tlb_shootdown t ~addr ~pages =
  let c = t.config in
  Perf.tlb_shootdown t.perf;
  charge t c.address_space_switch_cycles;
  for p = 0 to pages - 1 do
    Tlb.invalidate t.tlb (addr + (p * c.page_size));
    charge t 2
  done

let execute_item t (item : Footprint.item) =
  let c = t.config in
  match item with
  | Fetch { region; offset; bytes } -> fetch t region ~offset ~bytes
  | Load { addr; bytes } -> load t ~addr ~bytes
  | Store { addr; bytes } -> store t ~addr ~bytes
  | Uncached_read { bytes; _ } ->
      let words = max 1 ((bytes + 3) / 4) in
      charge_bus t (words * c.write_bus_cycles);
      charge t (words * c.write_bus_cycles)
  | Uncached_write { bytes; _ } ->
      let words = max 1 ((bytes + 3) / 4) in
      charge_bus t (words * c.write_bus_cycles);
      charge t words
  | Switch_address_space ->
      Perf.address_space_switch t.perf;
      Tlb.flush t.tlb;
      charge t c.address_space_switch_cycles
  | Stall n -> charge t n

let execute t fp = List.iter (execute_item t) fp

let advance_to t time =
  let time = float_of_int time in
  if time > t.clock.time then t.clock.time <- time

let flush_caches t =
  Cache.flush t.icache;
  Cache.flush t.dcache;
  Tlb.flush t.tlb
