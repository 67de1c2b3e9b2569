type slot_state =
  | Free
  | Held of bytes option  (* None = logically zero page *)

type t = {
  mutable slots : slot_state array;
  free : int Svagc_util.Vec.t;
  mutable in_use : int;
  mutable high_water : int;  (* slots ever handed out; growth frontier *)
}

let create () = { slots = Array.make 64 Free; free = Svagc_util.Vec.create (); in_use = 0; high_water = 0 }

let grow t =
  let old = t.slots in
  let bigger = Array.make (2 * Array.length old) Free in
  Array.blit old 0 bigger 0 (Array.length old);
  t.slots <- bigger

let alloc_slot t =
  let slot =
    (* Freed slots are reused most recently freed first, before the
       frontier advances, which keeps slot numbers small and
       deterministic. *)
    if Svagc_util.Vec.is_empty t.free then begin
      let s = t.high_water in
      t.high_water <- s + 1;
      if s >= Array.length t.slots then grow t;
      s
    end
    else Svagc_util.Vec.pop_last t.free
  in
  t.slots.(slot) <- Held None;
  t.in_use <- t.in_use + 1;
  slot

let check_held t slot what =
  if slot < 0 || slot >= Array.length t.slots then
    invalid_arg (Printf.sprintf "Swap_dev.%s: no such slot %d" what slot);
  match t.slots.(slot) with
  | Free -> invalid_arg (Printf.sprintf "Swap_dev.%s: slot %d not allocated" what slot)
  | Held payload -> payload

let release t slot =
  t.slots.(slot) <- Free;
  t.in_use <- t.in_use - 1;
  Svagc_util.Vec.push t.free slot

let free_slot t slot =
  ignore (check_held t slot "free_slot");
  release t slot

let write t ~slot payload =
  ignore (check_held t slot "write");
  t.slots.(slot) <- Held payload

let take t ~slot =
  let payload = check_held t slot "take" in
  release t slot;
  payload

let peek t ~slot = check_held t slot "peek"

let allocated t ~slot =
  slot >= 0 && slot < Array.length t.slots
  && (match t.slots.(slot) with Free -> false | Held _ -> true)

let slots_in_use t = t.in_use
