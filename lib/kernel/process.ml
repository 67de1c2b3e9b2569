open Svagc_vmem

type t = {
  pid : int;
  name : string;
  aspace : Address_space.t;
  machine : Machine.t;
  mutable current_core : int;
  mutable pinned : bool;
  mutable next_object_id : int;
  mutable co_runners : int;
}

let next_pid = ref 100

let create ?name machine =
  incr next_pid;
  let pid = !next_pid in
  let name = match name with Some n -> n | None -> Printf.sprintf "proc-%d" pid in
  {
    pid;
    name;
    aspace = Address_space.create machine;
    machine;
    current_core = 0;
    pinned = false;
    next_object_id = 1;
    co_runners = 1;
  }

let pid t = t.pid
let name t = t.name
let aspace t = t.aspace
let machine t = t.machine
let current_core t = t.current_core

let fresh_object_id t =
  let id = t.next_object_id in
  t.next_object_id <- id + 1;
  id

let co_runners t = t.co_runners

let set_co_runners t k = t.co_runners <- k

let set_current_core t core =
  if core < 0 || core >= t.machine.Machine.ncores then
    invalid_arg "Process.set_current_core: no such core";
  if t.pinned then invalid_arg "Process.set_current_core: process is pinned";
  t.current_core <- core

let is_pinned t = t.pinned

let pin t ~core =
  if core < 0 || core >= t.machine.Machine.ncores then
    invalid_arg "Process.pin: no such core";
  t.current_core <- core;
  t.pinned <- true;
  Perf.bump t.machine.Machine.perf Pins 1;
  t.machine.Machine.cost.Cost_model.pin_ns

let unpin t =
  t.pinned <- false;
  t.machine.Machine.cost.Cost_model.pin_ns
