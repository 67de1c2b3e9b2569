open Svagc_vmem
module Reclaim = Svagc_reclaim.Reclaim

let attach machine ~limit_frames ?max_io_retries ?dev ?cgroup () =
  let r = Reclaim.create machine ~limit_frames ?max_io_retries ?dev () in
  Reclaim.set_cgroup r cgroup;
  let iface =
    {
      Machine.ri_page_mapped =
        (fun ~pt ~asid ~va -> Reclaim.page_mapped r ~pt ~asid ~va);
      ri_page_unmapped =
        (fun ~asid ~va ~pte -> Reclaim.page_unmapped r ~asid ~va ~pte);
      ri_page_touched = (fun ~asid ~va -> Reclaim.page_touched r ~asid ~va);
      ri_fault_in = (fun ~pt ~asid ~va -> Reclaim.fault_in r ~pt ~asid ~va);
      ri_adopt = (fun ~pt ~asid -> Reclaim.adopt_space r ~pt ~asid);
      ri_slot_bytes = (fun ~slot -> Reclaim.slot_bytes r ~slot);
      ri_slot_allocated = (fun ~slot -> Reclaim.slot_allocated r ~slot);
      ri_slots_in_use = (fun () -> Reclaim.slots_in_use r);
      ri_drain_ns = (fun () -> Reclaim.drain_ns r);
      ri_cgroup_stats = (fun () -> Reclaim.cgroup_stats r);
      ri_tier_stats = (fun () -> Reclaim.tier_stats r);
      ri_lru_audit = (fun () -> Reclaim.lru_audit r);
    }
  in
  machine.Machine.reclaim <- Some iface;
  r

let attached machine = machine.Machine.reclaim <> None

let detach machine = machine.Machine.reclaim <- None
