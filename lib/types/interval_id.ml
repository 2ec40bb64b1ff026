type t = { owner : Proc_id.t; seq : int }

let make ~owner ~seq = { owner; seq }
let owner t = t.owner
let seq t = t.seq
let equal a b = Proc_id.equal a.owner b.owner && Int.equal a.seq b.seq

let compare a b =
  match Proc_id.compare a.owner b.owner with
  | 0 -> Int.compare a.seq b.seq
  | c -> c

let pp ppf t = Format.fprintf ppf "%a.i%d" Proc_id.pp t.owner t.seq
let to_string t = Format.asprintf "%a" pp t

module Ord = struct
  type nonrec t = t

  let compare = compare
end

(* Pack (owner, seq) into one order-preserving index: owner-major, then
   seq — the same order as [compare]. The +1 keeps the index non-negative
   for the runtime's definite interval, which uses seq = -1. Indices are
   sparse (owners stride by 2^31), so the set sticks to the sorted-array
   layout (dense = false). *)
let index t = (Proc_id.to_int t.owner lsl 31) lor (t.seq + 1)
let of_index i = { owner = Proc_id.of_int (i lsr 31); seq = (i land 0x7FFF_FFFF) - 1 }

module Set = Aid_set.Make (struct
  type nonrec t = t

  let index = index
  let of_index = of_index
  let pp = pp
  let dense = false
end)

module Map = Map.Make (Ord)
