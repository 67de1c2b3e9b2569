(* Per-tenant resident-page accounting over the shared frame pool.  Pure
   state: the reclaimer calls it directly, charging/uncharging as pages
   enter/leave its tracking table, and consults the soft/hard limits for
   victim selection and hard-limit enforcement.  A tenant is created
   implicitly (unlimited) on its first charge — heap pages map during
   spawn, typically before the fleet driver registers limits. *)

type tenant = {
  asid : int;
  mutable resident : int;
  mutable soft : int;
  mutable hard : int;
}

type t = {
  (* By asid; [absent] where no tenant has appeared. *)
  mutable tenants : tenant array;
  mutable count : int;
  (* Tenants currently over their soft limit, maintained incrementally so
     the kswapd wake check is O(1). *)
  mutable over_soft : int;
}

(* Shared by every empty slot and never mutated: it reads as an unlimited
   tenant with nothing resident. *)
let absent = { asid = -1; resident = 0; soft = max_int; hard = max_int }

let create () = { tenants = Array.make 64 absent; count = 0; over_soft = 0 }

(* [charge], [excess] and [prefer] run per page on the reclaim hot paths:
   an array read, no hashing. *)
let lookup t asid =
  if asid >= 0 && asid < Array.length t.tenants then t.tenants.(asid)
  else absent

let find t asid =
  let tn = lookup t asid in
  if tn != absent then tn
  else begin
    if asid < 0 then invalid_arg "Cgroup: negative asid";
    let len = Array.length t.tenants in
    if asid >= len then begin
      let tenants = Array.make (Stdlib.max (2 * len) (asid + 1)) absent in
      Array.blit t.tenants 0 tenants 0 len;
      t.tenants <- tenants
    end;
    let tn = { asid; resident = 0; soft = max_int; hard = max_int } in
    t.tenants.(asid) <- tn;
    t.count <- t.count + 1;
    tn
  end

let charge t ~asid =
  let tn = find t asid in
  tn.resident <- tn.resident + 1;
  if tn.resident = tn.soft + 1 then t.over_soft <- t.over_soft + 1

let uncharge t ~asid =
  let tn = find t asid in
  tn.resident <- tn.resident - 1;
  if tn.resident = tn.soft then t.over_soft <- t.over_soft - 1

let set_limits t ~asid ~soft ~hard =
  if hard < 1 then invalid_arg "Cgroup.set_limits: hard must be >= 1";
  if soft < 0 || soft > hard then
    invalid_arg "Cgroup.set_limits: need 0 <= soft <= hard";
  let tn = find t asid in
  let was = tn.resident > tn.soft in
  tn.soft <- soft;
  tn.hard <- hard;
  let is = tn.resident > soft in
  if is && not was then t.over_soft <- t.over_soft + 1
  else if was && not is then t.over_soft <- t.over_soft - 1

let resident t ~asid = (lookup t asid).resident

let excess t ~asid =
  let tn = lookup t asid in
  Stdlib.max 0 (tn.resident - tn.hard)

let prefer t ~asid =
  let tn = lookup t asid in
  tn.resident > tn.soft

let any_over_soft t = t.over_soft > 0

let tenant_count t = t.count

let stats t =
  let acc = ref [] in
  for asid = Array.length t.tenants - 1 downto 0 do
    let tn = t.tenants.(asid) in
    if tn != absent then acc := (asid, tn.resident, tn.soft, tn.hard) :: !acc
  done;
  !acc
