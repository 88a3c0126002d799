type t = {
  sets : int;
  assoc : int;
  line_bits : int;  (* log2 of the line size *)
  set_bits : int;  (* log2 of [sets] *)
  tags : int array;  (* [set * assoc + way]; -1 = invalid *)
  stamps : int array;  (* LRU stamps parallel to [tags] *)
  mutable tick : int;
}

let log2 what n =
  let rec go b = if 1 lsl b >= n then b else go (b + 1) in
  let b = go 0 in
  if 1 lsl b <> n then
    invalid_arg (Printf.sprintf "Cache.create: %s %d is not a power of two" what n);
  b

let create (g : Config.cache_geometry) =
  let sets = g.size / (g.line * g.assoc) in
  assert (sets > 0);
  {
    sets;
    assoc = g.assoc;
    line_bits = log2 "line size" g.line;
    set_bits = log2 "set count" sets;
    tags = Array.make (sets * g.assoc) (-1);
    stamps = Array.make (sets * g.assoc) 0;
    tick = 0;
  }

(* This runs once per cache line touched by every simulated instruction
   fetch, load and store, so it is one flat function: no tuples, options,
   closures or helper calls.  Tags are unique within a set (a line is
   only installed on a miss), so the first match is the only one; on a
   miss the victim is the least recently stamped way, the lowest on
   ties. *)
let access t addr =
  if addr < 0 then invalid_arg "Cache.access: negative address";
  let line_addr = addr lsr t.line_bits in
  let tag = line_addr lsr t.set_bits in
  let base = (line_addr land (t.sets - 1)) * t.assoc in
  let stop = base + t.assoc in
  t.tick <- t.tick + 1;
  let way = ref base in
  while !way < stop && t.tags.(!way) <> tag do
    incr way
  done;
  if !way < stop then begin
    t.stamps.(!way) <- t.tick;
    true
  end
  else begin
    let victim = ref base in
    for i = base + 1 to stop - 1 do
      if t.stamps.(i) < t.stamps.(!victim) then victim := i
    done;
    t.tags.(!victim) <- tag;
    t.stamps.(!victim) <- t.tick;
    false
  end

let probe t addr =
  let line_addr = addr lsr t.line_bits in
  let tag = line_addr lsr t.set_bits in
  let base = (line_addr land (t.sets - 1)) * t.assoc in
  let hit = ref false in
  for i = base to base + t.assoc - 1 do
    if t.tags.(i) = tag then hit := true
  done;
  !hit

let flush t = Array.fill t.tags 0 (Array.length t.tags) (-1)
let lines t = t.sets * t.assoc

let resident t =
  Array.fold_left (fun acc tag -> if tag >= 0 then acc + 1 else acc) 0 t.tags
