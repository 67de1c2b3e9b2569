type cycle = {
  mark_ns : float;
  forward_ns : float;
  adjust_ns : float;
  compact_ns : float;
  concurrent_ns : float;
  live_objects : int;
  live_bytes : int;
  reclaimed_bytes : int;
  moved_objects : int;
  swapped_objects : int;
  bytes_copied : int;
  bytes_remapped : int;
}

let pause_ns c = c.mark_ns +. c.forward_ns +. c.adjust_ns +. c.compact_ns

let non_compact_ns c = c.mark_ns +. c.forward_ns +. c.adjust_ns

type summary = {
  cycles : int;
  total_pause_ns : float;
  max_pause_ns : float;
  avg_pause_ns : float;
  total_compact_ns : float;
  total_other_ns : float;
  total_concurrent_ns : float;
  total_bytes_copied : int;
  total_bytes_remapped : int;
}

let summarize cycles =
  let n = List.length cycles in
  let total_pause = List.fold_left (fun acc c -> acc +. pause_ns c) 0.0 cycles in
  {
    cycles = n;
    total_pause_ns = total_pause;
    max_pause_ns = List.fold_left (fun acc c -> Float.max acc (pause_ns c)) 0.0 cycles;
    avg_pause_ns = (if n = 0 then 0.0 else total_pause /. float_of_int n);
    total_compact_ns = List.fold_left (fun acc c -> acc +. c.compact_ns) 0.0 cycles;
    total_other_ns = List.fold_left (fun acc c -> acc +. non_compact_ns c) 0.0 cycles;
    total_concurrent_ns =
      List.fold_left (fun acc c -> acc +. c.concurrent_ns) 0.0 cycles;
    total_bytes_copied = List.fold_left (fun acc c -> acc + c.bytes_copied) 0 cycles;
    total_bytes_remapped =
      List.fold_left (fun acc c -> acc + c.bytes_remapped) 0 cycles;
  }
