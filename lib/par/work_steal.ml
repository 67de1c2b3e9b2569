type stats = {
  threads : int;
  tasks : int;
  steals : int;
  total_work_ns : float;
  makespan_ns : float;
}

type 'a worker = {
  deque : 'a Deque.t;
  mutable clock : float;
  mutable live : bool;
}

let run ~threads ~steal_ns ~barrier_ns ~cost ~execute items =
  if threads <= 0 then invalid_arg "Work_steal.run: threads must be positive";
  let n = Array.length items in
  let workers =
    Array.init threads (fun _ ->
        { deque = Deque.create (); clock = 0.0; live = true })
  in
  (* Round-robin seeding keeps the initial split balanced without assuming
     anything about task order. *)
  Array.iteri (fun i item -> Deque.push workers.(i mod threads).deque item) items;
  let steals = ref 0 in
  let total = ref 0.0 in
  let remaining = ref n in
  (* Lowest-clock live worker acts next: an event-driven replay. *)
  let next_worker () =
    let best = ref None in
    Array.iteri
      (fun i w ->
        if w.live then
          match !best with
          | None -> best := Some i
          | Some j -> if w.clock < workers.(j).clock then best := Some i)
      workers;
    !best
  in
  let richest_victim () =
    let best = ref None in
    Array.iteri
      (fun i w ->
        let len = Deque.length w.deque in
        if len > 0 then
          match !best with
          | None -> best := Some i
          | Some j ->
            if len > Deque.length workers.(j).deque then best := Some i)
      workers;
    !best
  in
  let run_task w item =
    let c = cost item in
    execute item;
    w.clock <- w.clock +. c;
    total := !total +. c;
    decr remaining
  in
  let rec loop () =
    if !remaining > 0 then begin
      match next_worker () with
      | None -> ()
      | Some i ->
        let w = workers.(i) in
        (match Deque.pop_back w.deque with
        | Some item ->
          run_task w item;
          loop ()
        | None -> (
          match richest_victim () with
          | None ->
            (* Nothing anywhere: this worker is done; others may still be
               executing their final tasks. *)
            w.live <- false;
            loop ()
          | Some v -> (
            (* Steal from the head (FIFO end) of the victim's deque. *)
            match Deque.steal_front workers.(v).deque with
            | None -> assert false (* richest_victim only returns non-empty *)
            | Some stolen ->
              incr steals;
              w.clock <- w.clock +. steal_ns;
              run_task w stolen;
              loop ())))
    end
  in
  loop ();
  let makespan =
    Array.fold_left (fun acc w -> Float.max acc w.clock) 0.0 workers
  in
  {
    threads;
    tasks = n;
    steals = !steals;
    total_work_ns = !total;
    makespan_ns = (if n = 0 then 0.0 else makespan +. barrier_ns);
  }

(* [run] replayed over a cost array with no boxing and no per-step
   allocation.  Round-robin seeding puts task [w + k*threads] in worker
   [w]'s deque, so that deque is the index range [k] in [lo.(w), hi.(w)):
   the owner pops at [hi], a thief takes [lo].  Tie-breaks and the order of
   float additions are [run]'s, so the makespan is bit-identical to it.  A
   worker only finds every deque empty once every task has run, so the
   replay needs no per-worker liveness. *)
let makespan ~threads ~steal_ns ~barrier_ns costs =
  if threads <= 0 then invalid_arg "Work_steal.makespan: threads must be positive";
  let n = Array.length costs in
  if n = 0 then 0.0
  else begin
    let clock = Array.make threads 0.0 in
    let lo = Array.make threads 0 in
    let hi = Array.make threads 0 in
    for w = 0 to threads - 1 do
      hi.(w) <- (n - w + threads - 1) / threads
    done;
    for _ = 1 to n do
      (* Lowest clock acts next; the lowest index wins ties. *)
      let i = ref 0 in
      for w = 1 to threads - 1 do
        if clock.(w) < clock.(!i) then i := w
      done;
      let i = !i in
      if hi.(i) > lo.(i) then begin
        let k = hi.(i) - 1 in
        hi.(i) <- k;
        clock.(i) <- clock.(i) +. costs.(i + (k * threads))
      end
      else begin
        (* Steal the oldest task of the longest deque, lowest index on ties. *)
        let v = ref 0 and longest = ref 0 in
        for w = 0 to threads - 1 do
          let len = hi.(w) - lo.(w) in
          if len > !longest then begin
            v := w;
            longest := len
          end
        done;
        let v = !v in
        let k = lo.(v) in
        lo.(v) <- k + 1;
        clock.(i) <- clock.(i) +. steal_ns +. costs.(v + (k * threads))
      end
    done;
    let m = ref 0.0 in
    for w = 0 to threads - 1 do
      m := Float.max !m clock.(w)
    done;
    !m +. barrier_ns
  end
