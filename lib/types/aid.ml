type t = Proc_id.t

let of_proc p = p
let to_proc t = t
let equal = Proc_id.equal
let compare = Proc_id.compare
let index = Proc_id.to_int
let pp ppf t = Format.fprintf ppf "X%d" (Proc_id.to_int t)
let to_string t = Format.asprintf "%a" pp t

(* AIDs are already interned: the AID process id *is* a dense small
   integer (the scheduler allocates process ids consecutively), and
   [compare] is integer comparison on it, so [index] is order-preserving
   and the hybrid set can use the bitset layout. *)
module Set = Aid_set.Make (struct
  type nonrec t = t

  let index = index
  let of_index = Proc_id.of_int
  let pp = pp
  let dense = true
end)

module Map = Map.Make (struct
  type nonrec t = t

  let compare = compare
end)
