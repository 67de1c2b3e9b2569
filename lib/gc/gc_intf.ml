open Svagc_heap
module Vec = Svagc_util.Vec
module Machine = Svagc_vmem.Machine
module Perf = Svagc_vmem.Perf

type t = {
  name : string;
  heap : Heap.t;
  run_cycle : unit -> Gc_stats.cycle;
  history : Gc_stats.cycle Vec.t;
}

let make ~name heap run_cycle = { name; heap; run_cycle; history = Vec.create () }

let name t = t.name

let heap t = t.heap

let collect t =
  let cycle = t.run_cycle () in
  Vec.push t.history cycle;
  let perf = (Svagc_kernel.Process.machine (Heap.proc t.heap)).Machine.perf in
  Perf.bump perf Gc_cycles 1;
  cycle

let cycles t = Vec.to_list t.history

let summary t = Gc_stats.summarize (cycles t)

let reset_history t = Vec.clear t.history
