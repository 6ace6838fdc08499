type t = {
  (* Resolved once at creation: the entry point's compiled body, its packet-
     field parameter order, a reusable argument buffer and the execution
     context over the NF's flat memory — the per-packet path never
     re-resolves the NF or allocates arguments, frames or outcomes. *)
  entry_fn : Ir.Compile.fn;
  entry_fields : Ir.Expr.field array;
  argv : int array;
  ctx : Ir.Compile.ctx;
  machine : Cache.Probe.machine;
  cycles_acc : int ref;
  misses_acc : int ref;
  pkt_count : int ref;
  mbuf_base : int;
  desc_base : int;
  ddio : bool;
}

type sample = { cycles : int; instrs : int; l3_misses : int; ret : int }

let overhead_instrs = 270
let overhead_cycles = 700

(* The mbuf pool and descriptor ring live outside the NF's address space;
   place them in a high 1GB page of their own. *)
let mbuf_pool_lines = 4096
let desc_ring_lines = 512

(* DPDK-style burst size: how many packets one replay dispatch pushes
   through the DUT back to back. *)
let burst_size = 32

let profile_level = function
  | Cache.Hierarchy.L1 -> Obs.Profile.L1
  | Cache.Hierarchy.L2 -> Obs.Profile.L2
  | Cache.Hierarchy.L3 -> Obs.Profile.L3
  | Cache.Hierarchy.Dram -> Obs.Profile.Dram

let machine ?(slice_seed = 0) ?(prefetch = false) () =
  Cache.Probe.machine ~slice_seed ~vmem_seed:17 ~prefetch
    Cache.Geometry.xeon_e5_2667v2

(* One NF or driver access through the cache hierarchy, charged to the
   packet and attributed to the profiler site entered last. *)
let charge machine ~cycles_acc ~misses_acc ~write vaddr =
  let hit = Cache.Probe.access_virtual machine vaddr in
  let lat = Cache.Hierarchy.latency machine.Cache.Probe.geom hit in
  cycles_acc := !cycles_acc + lat;
  if hit = Cache.Hierarchy.Dram then incr misses_acc;
  if Obs.Profile.enabled () then
    Obs.Profile.add_access ~write (profile_level hit) ~cycles:lat

let create ?slice_seed ?prefetch ?(ddio = false) nf =
  let machine = machine ?slice_seed ?prefetch () in
  let cycles_acc = ref 0 and misses_acc = ref 0 in
  let hooks =
    {
      Ir.Interp.on_access =
        (fun ~addr ~width:_ ~write ->
          charge machine ~cycles_acc ~misses_acc ~write addr);
    }
  in
  let compiled = Ir.Compile.program nf.Nf.Nf_def.program in
  let entry = Ir.Cfg.entry_func nf.Nf.Nf_def.program in
  let entry_fields = Nf.Packet.fields_for entry in
  let mem = Ir.Memory.flat_of_memory (Nf.Nf_def.fresh_memory nf) in
  {
    entry_fn = Ir.Compile.lookup compiled "process";
    entry_fields;
    argv = Array.make (Array.length entry_fields) 0;
    ctx = Ir.Compile.context ~mem ~hooks;
    machine;
    cycles_acc;
    misses_acc;
    pkt_count = ref 0;
    mbuf_base = 40 lsl Cache.Vmem.page_bits;
    desc_base = 41 lsl Cache.Vmem.page_bits;
    ddio;
  }

(* The per-packet DPDK path: poll the descriptor ring, then read the frame
   the NIC just DMA-wrote into the next mbuf (mandatory DRAM trip: the DMA
   invalidated that line). *)
let dpdk_path t =
  let geom = t.machine.Cache.Probe.geom in
  let k = !(t.pkt_count) in
  let desc = t.desc_base + (k mod desc_ring_lines * geom.Cache.Geometry.line) in
  let mbuf = t.mbuf_base + (k mod mbuf_pool_lines * geom.Cache.Geometry.line) in
  (* Driver overhead outside NF code attributes to a pseudo-function. *)
  if Obs.Profile.enabled () then begin
    Obs.Profile.enter ~func:"<dpdk>" ~pc:0;
    Obs.Profile.add_exec ~instrs:overhead_instrs ~cycles:overhead_cycles
  end;
  charge t.machine ~cycles_acc:t.cycles_acc ~misses_acc:t.misses_acc
    ~write:false desc;
  (* The DMA write lands just before the CPU read.  Without DDIO it goes to
     DRAM and invalidates the line; with DDIO the NIC writes straight into
     the cache, avoiding the previously mandatory miss — which improves all
     workloads the same (the paper's §3.3 point). *)
  let paddr = Cache.Vmem.translate t.machine.Cache.Probe.vmem mbuf in
  if t.ddio then ignore (Cache.Hierarchy.access t.machine.Cache.Probe.hier paddr)
  else Cache.Hierarchy.invalidate_line t.machine.Cache.Probe.hier paddr;
  charge t.machine ~cycles_acc:t.cycles_acc ~misses_acc:t.misses_acc
    ~write:false mbuf;
  t.cycles_acc := !(t.cycles_acc) + overhead_cycles

let process t p =
  t.cycles_acc := 0;
  t.misses_acc := 0;
  dpdk_path t;
  incr t.pkt_count;
  Nf.Packet.fill_args t.entry_fields p t.argv;
  let ret = Ir.Compile.run t.ctx t.entry_fn t.argv in
  let instrs = Ir.Compile.instrs t.ctx in
  (* Non-memory work: instruction retirement at the calibrated CPI.  Memory
     latencies were accumulated by the access hook. *)
  {
    cycles = !(t.cycles_acc) + Cache.Geometry.op_cycles instrs;
    instrs = overhead_instrs + instrs;
    l3_misses = !(t.misses_acc);
    ret;
  }

let no_sample = { cycles = 0; instrs = 0; l3_misses = 0; ret = 0 }

(* Observationally [Array.map (process t)] (pinned by qcheck). *)
let process_burst t pkts =
  let n = Array.length pkts in
  let out = Array.make n no_sample in
  for i = 0 to n - 1 do
    Array.unsafe_set out i (process t (Array.unsafe_get pkts i))
  done;
  out

let m_replay_packets = Obs.Metrics.counter "replay.packets"
let m_replay_bursts = Obs.Metrics.counter "replay.bursts"

let replay t w ~samples =
  let r, dt =
    Obs.Trace.timed "dut.replay"
      ~args:[ ("samples", Obs.Json.Int samples) ]
      (fun () ->
        (* Samples go straight into the output array; a burst is only the
           unit [replay.bursts] counts. *)
        let out = Array.make samples no_sample in
        let k = ref 0 in
        while !k < samples do
          let stop = min samples (!k + burst_size) in
          for i = !k to stop - 1 do
            Array.unsafe_set out i (process t (Workload.nth_looped w i))
          done;
          Obs.Metrics.incr m_replay_bursts;
          k := stop
        done;
        Obs.Metrics.incr ~by:samples m_replay_packets;
        out)
  in
  if Obs.Profile.enabled () then Obs.Profile.add_timer "replay" dt;
  r
