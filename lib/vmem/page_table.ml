(* A PTE leaf is the flat 512-entry array plus a presence bitset over it:
   bit i of [mapped_words.(i / 32)] is set iff [ptes.(i) <> Pte.none]
   (present OR swapped — "mapped" in the SwapVA precheck sense), and
   [mapped_count] is the maintained popcount.  The bitset lets SwapVA's
   mapped-range check cover a whole leaf slice in O(words) — one compare
   when the leaf is fully mapped — instead of loading every PTE.

   Invariant discipline: every none<->mapped transition goes through
   [set_pte] (heap map/unmap, reclaim swap-out/fault-in), which updates
   the bitset; the exchange paths (swap_pte_runs, the per-page walker
   slots, the overlap rotation) only ever write already-mapped values
   over already-mapped values, so they cannot invalidate it.  The
   svagc_check oracle re-derives the bitset from the PTE array
   (see [bitset_violations]) to enforce exactly that. *)

type leaf = {
  ptes : Pte.value array;
  mapped_words : int array;  (* Addr.entries_per_table / 32 words, 32 bits each *)
  mutable mapped_count : int;
}

module Index = Svagc_util.Addr_index
module Vec = Svagc_util.Vec

(* The host structure is a leaf index: the cost model charges Algorithm
   1's four-level walk, but the host keeps only the leaves, keyed by PMD
   number.  [pmds] holds the same keys in ascending order for the walks;
   leaves are never removed and a PMD swap only exchanges two values, so
   it only ever grows. *)
type t = {
  leaves : leaf Index.t;
  pmds : int Vec.t;
}

let word_bits = 32
let words_per_leaf = Addr.entries_per_table / word_bits
let full_word = 0xFFFFFFFF

let popcount32 x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F in
  (x * 0x01010101) lsr 24 land 0xFF

let make_leaf () =
  {
    ptes = Array.make Addr.entries_per_table Pte.none;
    mapped_words = Array.make words_per_leaf 0;
    mapped_count = 0;
  }

(* Stands in for a missing leaf: every PTE is [Pte.none], and nothing
   ever writes through it.  Also the filler of the index. *)
let no_leaf = make_leaf ()

let create () = { leaves = Index.create no_leaf; pmds = Vec.create () }

(* One probe of the index; allocates nothing and writes nothing, so
   concurrent readers are safe while no domain writes. *)
let leaf_at t va = Index.find_or_filler t.leaves (Addr.pmd_number va)

let ensure_leaf t va =
  let leaf = leaf_at t va in
  if leaf != no_leaf then leaf
  else begin
    let leaf = make_leaf () and pmd = Addr.pmd_number va in
    Index.replace t.leaves pmd leaf;
    (* Insertion sort; heaps grow upward, so the loop rarely runs. *)
    Vec.push t.pmds pmd;
    let i = ref (Vec.length t.pmds - 1) in
    while !i > 0 && Vec.get t.pmds (!i - 1) > pmd do
      Vec.set t.pmds !i (Vec.get t.pmds (!i - 1));
      decr i
    done;
    Vec.set t.pmds !i pmd;
    leaf
  end

let get_pte t va = (leaf_at t va).ptes.(Addr.pte_index va)

let leaf_ptes leaf = leaf.ptes

(* First index in [lo, hi) whose PTE is none, or -1 when the whole window
   is mapped.  O(1) when the leaf is full; otherwise a masked word scan —
   at most 16 loads per leaf instead of up to 512 PTE loads. *)
let leaf_first_unmapped leaf ~lo ~hi =
  if lo < 0 || hi > Addr.entries_per_table || lo > hi then
    invalid_arg "Page_table.leaf_first_unmapped: bad window";
  if leaf.mapped_count = Addr.entries_per_table || lo = hi then -1
  else begin
    let words = leaf.mapped_words in
    let result = ref (-1) in
    let w = ref (lo / word_bits) in
    let last_w = (hi - 1) / word_bits in
    while !result < 0 && !w <= last_w do
      let base = !w * word_bits in
      (* Bits of this word that fall inside [lo, hi). *)
      let from_bit = if base < lo then lo - base else 0 in
      let upto_bit = if base + word_bits > hi then hi - base else word_bits in
      let mask =
        let hi_mask =
          if upto_bit = word_bits then full_word else (1 lsl upto_bit) - 1
        in
        hi_mask land lnot ((1 lsl from_bit) - 1)
      in
      let missing = lnot (Array.unsafe_get words !w) land mask in
      if missing <> 0 then begin
        (* Lowest set bit of [missing] = first unmapped index. *)
        let bit = ref 0 in
        while missing land (1 lsl !bit) = 0 do
          incr bit
        done;
        result := base + !bit
      end;
      incr w
    done;
    !result
  end

let swap_pte_runs leaf_a ~start_a leaf_b ~start_b ~len =
  if len < 0 then invalid_arg "Page_table.swap_pte_runs: negative length";
  if
    start_a < 0 || start_b < 0
    || start_a + len > Array.length leaf_a
    || start_b + len > Array.length leaf_b
  then invalid_arg "Page_table.swap_pte_runs: slice out of bounds";
  if leaf_a == leaf_b && abs (start_a - start_b) < len then
    invalid_arg "Page_table.swap_pte_runs: overlapping slices";
  (* Allocation-free elementwise exchange.  A blit-based version either
     allocates its temporary per call — a 512-entry array is over the
     minor-heap allocation limit, so it lands on the major heap and paces
     major-GC slices over whatever the simulated machine keeps live — or
     moves 3x the memory traffic through a scratch, which loses once the
     PTE working set outgrows the cache.  PTE values are immediates, so
     this loop is pure int traffic (bounds already checked above).
     Exchanging mapped-for-mapped values never changes mappedness, so the
     presence bitsets of the owning leaves stay valid untouched. *)
  for i = 0 to len - 1 do
    let a = Array.unsafe_get leaf_a (start_a + i) in
    Array.unsafe_set leaf_a (start_a + i) (Array.unsafe_get leaf_b (start_b + i));
    Array.unsafe_set leaf_b (start_b + i) a
  done

let swap_pmd_entries t va_a va_b =
  let aligned va = Addr.pte_index va = 0 && Addr.page_offset va = 0 in
  if not (aligned va_a && aligned va_b) then
    invalid_arg "Page_table.swap_pmd_entries: addresses must be PMD-aligned";
  let a = leaf_at t va_a and b = leaf_at t va_b in
  if a == no_leaf || b == no_leaf then
    invalid_arg "Page_table.swap_pmd_entries: no leaf at PMD slot";
  Index.replace t.leaves (Addr.pmd_number va_a) b;
  Index.replace t.leaves (Addr.pmd_number va_b) a

let set_pte t va v =
  let leaf = ensure_leaf t va in
  let idx = Addr.pte_index va in
  let old = leaf.ptes.(idx) in
  leaf.ptes.(idx) <- v;
  let was = old <> Pte.none and now = v <> Pte.none in
  if was <> now then begin
    let w = idx lsr 5 and bit = 1 lsl (idx land 31) in
    if now then begin
      leaf.mapped_words.(w) <- leaf.mapped_words.(w) lor bit;
      leaf.mapped_count <- leaf.mapped_count + 1
    end
    else begin
      leaf.mapped_words.(w) <- leaf.mapped_words.(w) land lnot bit;
      leaf.mapped_count <- leaf.mapped_count - 1
    end
  end

let translate t va =
  let v = get_pte t va in
  if Pte.is_present v then Some (Pte.frame_exn v, Addr.page_offset va) else None

(* Every leaf with its PMD number, in ascending PMD order. *)
let iter_leaves t f = Vec.iter (fun pmd -> f pmd (Index.find t.leaves pmd)) t.pmds

(* Every mapped PTE (present or swapped) in ascending vpn order, as
   [f vpn pte]: a leaf is read through its presence words, so its
   unmapped entries are never loaded. *)
let iter_ptes t f =
  iter_leaves t (fun pmd leaf ->
      let first_vpn = pmd * Addr.entries_per_table in
      for w = 0 to words_per_leaf - 1 do
        let bits = ref leaf.mapped_words.(w) in
        while !bits <> 0 do
          (* Lowest set bit first: ascending index order. *)
          let low = !bits land (- !bits) in
          let i = (w * word_bits) + popcount32 (low - 1) in
          f (first_vpn + i) leaf.ptes.(i);
          bits := !bits lxor low
        done
      done)

let iter_mapped t ~f =
  iter_ptes t (fun vpn v ->
      if Pte.is_present v then f ~vpn ~frame:(Pte.frame_exn v))

let mapped_pages t =
  let n = ref 0 in
  iter_mapped t ~f:(fun ~vpn:_ ~frame:_ -> incr n);
  !n

(* The non-present half of the encoding: the svagc_check reclaim oracle
   uses this to account for every swap slot a table references. *)
let iter_swapped t ~f =
  iter_ptes t (fun vpn v ->
      if Pte.is_swapped v then f ~vpn ~slot:(Pte.swap_slot_exn v))

let swapped_pages t =
  let n = ref 0 in
  iter_swapped t ~f:(fun ~vpn:_ ~slot:_ -> incr n);
  !n

(* Oracle for the bitset invariant: recompute every leaf's presence words
   from its PTE array.  Returns the number of inconsistent leaves. *)
let bitset_violations t =
  let bad = ref 0 in
  iter_leaves t (fun _ leaf ->
      let count = ref 0 in
      let ok = ref true in
      for w = 0 to words_per_leaf - 1 do
        let expect = ref 0 in
        let base = w * word_bits in
        for b = 0 to word_bits - 1 do
          if leaf.ptes.(base + b) <> Pte.none then
            expect := !expect lor (1 lsl b)
        done;
        if leaf.mapped_words.(w) <> !expect then ok := false;
        count := !count + popcount32 !expect
      done;
      if leaf.mapped_count <> !count then ok := false;
      if not !ok then incr bad);
  !bad
