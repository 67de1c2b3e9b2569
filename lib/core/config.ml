module Shootdown = Svagc_kernel.Shootdown

type t = {
  threshold_pages : int;
  pmd_caching : bool;
  aggregation_batch : int;
  flush : Shootdown.policy;
  gc_threads : int;
  fault_spec : Svagc_fault.Fault_spec.t;
  fault_seed : int;
}

let default =
  {
    threshold_pages = 10;
    pmd_caching = true;
    aggregation_batch = 64;
    flush = Shootdown.Local_pinned;
    gc_threads = 4;
    fault_spec = Svagc_fault.Fault_spec.empty;
    fault_seed = 0;
  }

let validate t =
  if t.threshold_pages <= 0 then invalid_arg "Config: threshold must be positive";
  if t.aggregation_batch <= 0 then invalid_arg "Config: batch must be positive";
  if t.gc_threads <= 0 then invalid_arg "Config: gc_threads must be positive"
