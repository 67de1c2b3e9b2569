let page_shift = 12
let page_size = 1 lsl page_shift
let level_bits = 9
let entries_per_table = 1 lsl level_bits
let pages_per_pmd = entries_per_table
let page_number va = va lsr page_shift
let page_offset va = va land (page_size - 1)
let of_page vpn = vpn lsl page_shift
let is_page_aligned va = page_offset va = 0
let align_up va = (va + page_size - 1) land lnot (page_size - 1)
let align_down va = va land lnot (page_size - 1)
let pages_spanned len = (len + page_size - 1) lsr page_shift

let pte_index va = page_number va land (entries_per_table - 1)
let pmd_number va = va lsr (page_shift + level_bits)
let pp ppf va = Format.fprintf ppf "0x%x" va
