(* Exact LRU over flat arrays: [tags] holds sets*ways line ids (-1 = empty
   way) and [stamps] the last-use tick of each way.  A hit rewrites one
   stamp; a miss scans the set twice (membership, then the minimum stamp)
   and overwrites the victim way in place.  Observably identical to the
   classic MRU-ordered-array formulation — the victim is always the
   least-recently-used resident tag, and empty ways (stamp 0, below every
   live stamp) fill before anything real is evicted — but with no
   [Array.blit] shifting on the hot path, which is what every simulated
   memory access pays.

   [dirty] lists, in its first [n_dirty] slots, every set a miss has filled
   since the last flush, and [filled] flags the same sets; every other set
   still holds only empty ways.  That lets [flush] reset just those sets
   instead of the whole level, which is what contention discovery pays once
   per probe on a 25.6 MiB L3. *)
type t = {
  ways : int;
  tags : int array;
  stamps : int array;
  filled : Bytes.t;
  dirty : int array;
  mutable n_dirty : int;
  mutable tick : int;
  mutable last_evicted : int;
}

let create ~sets ~ways =
  {
    ways;
    tags = Array.make (sets * ways) (-1);
    stamps = Array.make (sets * ways) 0;
    filled = Bytes.make sets '\000';
    dirty = Array.make sets 0;
    n_dirty = 0;
    tick = 0;
    last_evicted = -1;
  }

(* The way of [set] holding [tag], or -1.  A loop over the set, not a local
   recursive function: a closure over [tag] and the set's bounds would be
   allocated on every simulated memory access, at every level. *)
let find t ~set ~tag =
  let base = set * t.ways in
  let limit = base + t.ways in
  let i = ref base in
  while !i < limit && Array.unsafe_get t.tags !i <> tag do
    incr i
  done;
  if !i < limit then !i else -1

let access t ~set ~tag =
  let base = set * t.ways in
  let tags = t.tags and stamps = t.stamps in
  let limit = base + t.ways in
  let pos = find t ~set ~tag in
  t.tick <- t.tick + 1;
  if pos >= 0 then begin
    Array.unsafe_set stamps pos t.tick;
    t.last_evicted <- -1;
    true
  end
  else begin
    (* Victim: the way with the oldest stamp; empty ways are stamp 0 and
       therefore always chosen first, mirroring the fill-before-evict
       behavior of the ordered-array representation. *)
    let victim = ref base and oldest = ref (Array.unsafe_get stamps base) in
    for i = base + 1 to limit - 1 do
      let s = Array.unsafe_get stamps i in
      if s < !oldest then begin
        oldest := s;
        victim := i
      end
    done;
    (* A clean set's first fill always lands on a stamp-0 way, so a full set
       (the warm steady state) never reaches the bookkeeping. *)
    if !oldest = 0 && Bytes.unsafe_get t.filled set = '\000' then begin
      Bytes.unsafe_set t.filled set '\001';
      Array.unsafe_set t.dirty t.n_dirty set;
      t.n_dirty <- t.n_dirty + 1
    end;
    t.last_evicted <- Array.unsafe_get tags !victim;
    Array.unsafe_set tags !victim tag;
    Array.unsafe_set stamps !victim t.tick;
    false
  end

let last_evicted t = t.last_evicted

let invalidate t ~set ~tag =
  let pos = find t ~set ~tag in
  if pos >= 0 then begin
    Array.unsafe_set t.tags pos (-1);
    (* Stamp 0 parks the freed way at the back of the LRU order, exactly
       where the shifting representation leaves invalidated ways. *)
    Array.unsafe_set t.stamps pos 0
  end

let resident t ~set ~tag = find t ~set ~tag >= 0

let flush t =
  for k = 0 to t.n_dirty - 1 do
    let set = Array.unsafe_get t.dirty k in
    let base = set * t.ways in
    Array.fill t.tags base t.ways (-1);
    Array.fill t.stamps base t.ways 0;
    Bytes.unsafe_set t.filled set '\000'
  done;
  t.n_dirty <- 0;
  t.tick <- 0;
  t.last_evicted <- -1

let occupancy t =
  Array.fold_left (fun acc tag -> if tag >= 0 then acc + 1 else acc) 0 t.tags
