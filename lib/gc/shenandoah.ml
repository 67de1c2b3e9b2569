let collector ?(threads = 4) heap =
  let cfg = Lisp2.config ~label:"shenandoah" ~threads ~compact_threads:1 () in
  Lisp2.collector cfg heap
