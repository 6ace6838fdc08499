type stats = { queries : int; hits : int; subset_hits : int; model_reuse : int }

let queries = Atomic.make 0

let stats () =
  { queries = Atomic.get queries; hits = 0; subset_hits = 0; model_reuse = 0 }

let m_miss = Obs.Metrics.counter "solver.cache.miss"
let m_dropped = Obs.Metrics.counter "solver.slice.constraints_dropped"

let note_query ~dropped =
  Atomic.incr queries;
  Obs.Metrics.incr m_miss;
  if dropped > 0 then Obs.Metrics.incr ~by:dropped m_dropped
