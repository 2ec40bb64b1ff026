(* Unit and property tests for the shared type layer: values, identifiers,
   wire messages, and envelopes. *)

open Hope_types

let test name f = Alcotest.test_case name `Quick f

(* ----------------------------- Value ------------------------------ *)

let rec value_gen depth =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        return Value.Unit;
        map (fun b -> Value.Bool b) bool;
        map (fun i -> Value.Int i) small_int;
        map (fun f -> Value.Float f) (float_bound_exclusive 1000.0);
        map (fun s -> Value.String s) small_string;
        map (fun i -> Value.Pid (Proc_id.of_int i)) small_nat;
        map (fun i -> Value.Aid_v (Aid.of_proc (Proc_id.of_int i))) small_nat;
      ]
  in
  if depth = 0 then leaf
  else
    oneof
      [
        leaf;
        map2 (fun a b -> Value.Pair (a, b)) (value_gen (depth - 1)) (value_gen (depth - 1));
        map (fun vs -> Value.List vs) (list_size (int_bound 4) (value_gen (depth - 1)));
      ]

let arbitrary_value = QCheck.make ~print:Value.to_string (value_gen 3)

let qcheck_value_equal_reflexive =
  QCheck.Test.make ~name:"value: equality is reflexive" ~count:500 arbitrary_value
    (fun v -> Value.equal v v)

let qcheck_value_size_positive =
  QCheck.Test.make ~name:"value: serialised size is positive" ~count:500
    arbitrary_value (fun v -> Value.size_bytes v > 0)

let qcheck_value_triple_roundtrip =
  QCheck.Test.make ~name:"value: triple roundtrip" ~count:200
    QCheck.(triple arbitrary_value arbitrary_value arbitrary_value)
    (fun (a, b, c) ->
      let a', b', c' = Value.to_triple (Value.triple a b c) in
      Value.equal a a' && Value.equal b b' && Value.equal c c')

let test_value_inequality () =
  Alcotest.(check bool) "Int <> Bool" false (Value.equal (Value.Int 1) (Value.Bool true));
  Alcotest.(check bool) "list length matters" false
    (Value.equal (Value.List [ Value.Int 1 ]) (Value.List [ Value.Int 1; Value.Int 2 ]));
  Alcotest.(check bool) "nested comparison" true
    (Value.equal
       (Value.Pair (Value.Int 1, Value.String "x"))
       (Value.Pair (Value.Int 1, Value.String "x")))

let test_value_projections_raise () =
  let check_raises name f =
    Alcotest.(check bool) name true (try ignore (f ()); false with Invalid_argument _ -> true)
  in
  check_raises "to_int on Bool" (fun () -> Value.to_int (Value.Bool true));
  check_raises "to_bool on Int" (fun () -> Value.to_bool (Value.Int 0));
  check_raises "to_pair on Unit" (fun () -> Value.to_pair Value.Unit);
  check_raises "to_list on Pair" (fun () ->
      Value.to_list (Value.Pair (Value.Unit, Value.Unit)));
  check_raises "to_aid on Pid" (fun () -> Value.to_aid (Value.Pid (Proc_id.of_int 1)))

(* -------------------------- identifiers --------------------------- *)

let qcheck_interval_id_order_total =
  QCheck.Test.make ~name:"interval id: compare is a total order" ~count:500
    QCheck.(triple (pair small_nat small_nat) (pair small_nat small_nat) (pair small_nat small_nat))
    (fun ((o1, s1), (o2, s2), (o3, s3)) ->
      let mk (o, s) = Interval_id.make ~owner:(Proc_id.of_int o) ~seq:s in
      let a = mk (o1, s1) and b = mk (o2, s2) and c = mk (o3, s3) in
      let cmp = Interval_id.compare in
      (* antisymmetry and transitivity on this sample *)
      (cmp a b <> 0 || Interval_id.equal a b)
      && (not (cmp a b < 0 && cmp b c < 0) || cmp a c < 0))

let test_interval_id_owner_major () =
  let a = Interval_id.make ~owner:(Proc_id.of_int 1) ~seq:100 in
  let b = Interval_id.make ~owner:(Proc_id.of_int 2) ~seq:0 in
  Alcotest.(check bool) "owner dominates" true (Interval_id.compare a b < 0)

let test_aid_roundtrip () =
  let p = Proc_id.of_int 17 in
  Alcotest.(check int) "aid <-> proc" 17 (Proc_id.to_int (Aid.to_proc (Aid.of_proc p)))

let test_aid_set_pp () =
  let s = Aid.Set.of_list [ Aid.of_proc (Proc_id.of_int 2); Aid.of_proc (Proc_id.of_int 1) ] in
  Alcotest.(check string) "sorted render" "{X1,X2}" (Format.asprintf "%a" Aid.Set.pp s)

(* --------------------------- Aid_set ------------------------------ *)

(* The hybrid sets (Aid_set) must agree with stdlib Set.Make on every
   operation, across both layouts (sorted array <= 32 elements, bitset
   beyond), and keep the layout canonical: sets with the same elements,
   however built, have the same layout, which [Aid.Set.equal] compares.
   Indices up to ~200 at sizes up to ~120 exercise the layout switch and
   word boundaries. *)
module Oracle = Set.Make (struct
  type t = Aid.t

  let compare = Aid.compare
end)

let aid_of_int i = Aid.of_proc (Proc_id.of_int i)

(* A list of AID indices; the pair-of-lists generator below feeds every
   binary law. *)
let aid_list_gen =
  QCheck.Gen.(list_size (int_bound 120) (map aid_of_int (int_bound 200)))

let arbitrary_aid_lists =
  QCheck.make
    ~print:(fun (a, b) ->
      let show l =
        String.concat ","
          (List.map (fun x -> string_of_int (Proc_id.to_int (Aid.to_proc x))) l)
      in
      Printf.sprintf "([%s],[%s])" (show a) (show b))
    QCheck.Gen.(pair aid_list_gen aid_list_gen)

let same (s : Aid.Set.t) (o : Oracle.t) =
  List.equal Aid.equal (Aid.Set.elements s) (Oracle.elements o)

(* [Aid.Set.count_fold_diff f a b c] must count exactly the elements of
   a ∩ b and visit exactly those of a \ b \ c, in ascending order. *)
let same_count_fold_diff a b c oa ob oc =
  let n, visited = Aid.Set.count_fold_diff (fun x acc -> x :: acc) a b c [] in
  n = Oracle.cardinal (Oracle.inter oa ob)
  && List.equal Aid.equal (List.rev visited)
       (Oracle.elements (Oracle.diff (Oracle.diff oa ob) oc))

let qcheck_aid_set_vs_oracle =
  QCheck.Test.make ~name:"aid set: union/inter/diff agree with Set.Make"
    ~count:1000 arbitrary_aid_lists (fun (la, lb) ->
      let s1 = Aid.Set.of_list la and s2 = Aid.Set.of_list lb in
      let o1 = Oracle.of_list la and o2 = Oracle.of_list lb in
      same s1 o1 && same s2 o2
      && same (Aid.Set.union s1 s2) (Oracle.union o1 o2)
      && same (Aid.Set.inter s1 s2) (Oracle.inter o1 o2)
      && same (Aid.Set.diff s1 s2) (Oracle.diff o1 o2)
      && same_count_fold_diff s1 s2 Aid.Set.empty o1 o2 Oracle.empty
      && same_count_fold_diff s1 s1 Aid.Set.empty o1 o1 Oracle.empty
      && same_count_fold_diff s1 Aid.Set.empty s2 o1 Oracle.empty o2
      &&
      (* a third operand, half of each list *)
      let l3 = List.filteri (fun i _ -> i mod 2 = 0) (la @ lb) in
      let s3 = Aid.Set.of_list l3 and o3 = Oracle.of_list l3 in
      same_count_fold_diff s1 s2 s3 o1 o2 o3
      && same_count_fold_diff s2 s3 s1 o2 o3 o1)

let qcheck_aid_set_queries_vs_oracle =
  QCheck.Test.make ~name:"aid set: mem/disjoint/subset/equal agree with Set.Make"
    ~count:1000 arbitrary_aid_lists (fun (la, lb) ->
      let s1 = Aid.Set.of_list la and s2 = Aid.Set.of_list lb in
      let o1 = Oracle.of_list la and o2 = Oracle.of_list lb in
      Aid.Set.disjoint s1 s2 = Oracle.disjoint o1 o2
      && Aid.Set.subset s1 s2 = Oracle.subset o1 o2
      && Aid.Set.equal s1 s2 = Oracle.equal o1 o2
      && Aid.Set.cardinal s1 = Oracle.cardinal o1
      && List.for_all (fun x -> Aid.Set.mem x s1 = Oracle.mem x o1) lb
      && List.for_all
           (fun x -> same (Aid.Set.remove x s1) (Oracle.remove x o1))
           lb
      && List.for_all (fun x -> same (Aid.Set.add x s2) (Oracle.add x o2)) la)

let qcheck_aid_set_canonical =
  QCheck.Test.make
    ~name:"aid set: equal sets built three ways share one layout"
    ~count:1000 arbitrary_aid_lists (fun (la, lb) ->
      (* Build the same element set through three different operation
         sequences; each must reach the layout of_list builds. *)
      let s1 = Aid.Set.of_list (la @ lb) in
      let s2 = Aid.Set.union (Aid.Set.of_list la) (Aid.Set.of_list lb) in
      let s3 = List.fold_left (fun acc x -> Aid.Set.add x acc) (Aid.Set.of_list lb) la in
      Aid.Set.equal s1 s2 && Aid.Set.equal s1 s3)

let qcheck_aid_set_fold_order =
  QCheck.Test.make ~name:"aid set: iteration order matches Set.Make" ~count:500
    arbitrary_aid_lists (fun (la, lb) ->
      let l = la @ lb in
      let s = Aid.Set.of_list l and o = Oracle.of_list l in
      List.equal Aid.equal
        (List.rev (Aid.Set.fold (fun x acc -> x :: acc) s []))
        (List.rev (Oracle.fold (fun x acc -> x :: acc) o []))
      && Aid.Set.min_elt_opt s = Oracle.min_elt_opt o)

(* One-element edits on wide bitsets. The generator above keeps indices
   under ~200, so its bitsets span at most four words; here indices
   cluster around a few centres up to ~5,000, so a bitset spans up to ~80
   words with empty runs between clusters, and single adds and removes
   land below the first word, above the last, and on a word's only bit.
   Every edit must agree with Set.Make and yield the layout [of_list]
   builds for the same elements. *)
let clustered_idx centres =
  QCheck.Gen.(
    let* c = oneofl centres in
    let* d = int_range (-70) 70 in
    return (max 0 (c + d)))

let clustered_gen =
  QCheck.Gen.(
    let* centres = list_size (int_range 1 4) (int_bound 5000) in
    let idx = clustered_idx centres in
    let* members = list_size (int_range 20 100) idx in
    let* probes = list_size (int_range 1 8) (oneof [ idx; int_bound 5100 ]) in
    return (members, probes))

let show_ints l = "[" ^ String.concat "," (List.map string_of_int l) ^ "]"

let arbitrary_clustered =
  QCheck.make
    ~print:(fun (m, p) -> Printf.sprintf "(%s, %s)" (show_ints m) (show_ints p))
    clustered_gen

let idx_set l = Aid.Set.of_list (List.map aid_of_int l)
let canonical s o = Aid.Set.equal s (Aid.Set.of_list (Oracle.elements o))

let qcheck_aid_set_edits_vs_oracle =
  QCheck.Test.make
    ~name:"aid set: one-element add/remove on wide bitsets agree with Set.Make"
    ~count:500 arbitrary_clustered (fun (members, probes) ->
      let s = idx_set members and o = Oracle.of_list (List.map aid_of_int members) in
      let p = idx_set probes and op = Oracle.of_list (List.map aid_of_int probes) in
      let half = List.filteri (fun i _ -> i mod 2 = 0) members in
      let h = idx_set half and oh = Oracle.of_list (List.map aid_of_int half) in
      let ends =
        List.filter_map Fun.id [ Oracle.min_elt_opt o; Oracle.max_elt_opt o ]
      in
      same s o
      && Aid.Set.for_all (fun x -> Oracle.mem x o) s
      && same_count_fold_diff s p Aid.Set.empty o op Oracle.empty
      && same_count_fold_diff p s Aid.Set.empty op o Oracle.empty
      && List.for_all
           (fun x ->
             let added = Aid.Set.add x s and removed = Aid.Set.remove x s in
             let oa = Oracle.add x o and orm = Oracle.remove x o in
             same added oa && same removed orm && canonical added oa
             && canonical removed orm
             && Aid.Set.min_elt_opt added = Oracle.min_elt_opt oa
             && Aid.Set.min_elt_opt removed = Oracle.min_elt_opt orm
             && Aid.Set.exists (Aid.equal x) added
             && (not (Aid.Set.exists (Aid.equal x) removed))
             && same_count_fold_diff added removed Aid.Set.empty oa orm Oracle.empty
             && same_count_fold_diff removed h Aid.Set.empty orm oh Oracle.empty
             && same_count_fold_diff added h p oa oh op
             && same_count_fold_diff removed p h orm op oh)
           (List.map aid_of_int probes @ ends))

(* Canonical layout along chains of edits: after every add or remove the
   set equals the one [of_list] builds for the oracle's elements. *)
let arbitrary_chain =
  QCheck.make
    ~print:(fun (m, ops) ->
      Printf.sprintf "(%s, [%s])" (show_ints m)
        (String.concat ";"
           (List.map (fun (a, i) -> (if a then "+" else "-") ^ string_of_int i) ops)))
    QCheck.Gen.(
      let* centres = list_size (int_range 1 3) (int_bound 5000) in
      let idx = clustered_idx centres in
      let* members = list_size (int_range 25 45) idx in
      let* ops =
        list_size (int_range 1 60) (pair bool (oneof [ idx; oneofl members ]))
      in
      return (members, ops))

let qcheck_aid_set_canonical_chains =
  QCheck.Test.make
    ~name:"aid set: add/remove chains stay equal to of_list"
    ~count:300 arbitrary_chain (fun (members, ops) ->
      let s0 = idx_set members and o0 = Oracle.of_list (List.map aid_of_int members) in
      let _, _, ok =
        List.fold_left
          (fun (s, o, ok) (is_add, i) ->
            let x = aid_of_int i in
            let s, o =
              if is_add then (Aid.Set.add x s, Oracle.add x o)
              else (Aid.Set.remove x s, Oracle.remove x o)
            in
            (s, o, ok && same s o && canonical s o))
          (s0, o0, true) ops
      in
      ok)

(* The layout edges, each built on purpose: widening below the first and
   above the last word, trimming the first or last word's only bit (past
   empty interior words), and the 32/33-element switch between the array
   and bitset layouts. *)
let test_aid_set_edit_edges () =
  let ints s = List.map (fun a -> Proc_id.to_int (Aid.to_proc a)) (Aid.Set.elements s) in
  let check name s l =
    Alcotest.(check (list int)) name (List.sort_uniq compare l) (ints s);
    Alcotest.(check bool) (name ^ ": the of_list layout") true
      (Aid.Set.equal s (idx_set l))
  in
  let add i s = Aid.Set.add (aid_of_int i) s and remove i s = Aid.Set.remove (aid_of_int i) s in
  let evens lo n = List.init n (fun k -> lo + (2 * k)) in
  let mid = evens 2000 40 in
  let s = idx_set mid in
  check "add below the first word" (add 10 s) (10 :: mid);
  check "add above the last word" (add 4990 s) (mid @ [ 4990 ]);
  check "add inside a word" (add 2001 s) (2001 :: mid);
  Alcotest.(check bool) "add then remove is the same set" true
    (Aid.Set.equal (remove 4990 (add 4990 s)) s);
  check "remove the first word's only bit" (remove 100 (idx_set (100 :: mid))) mid;
  check "remove the last word's only bit" (remove 4900 (idx_set (mid @ [ 4900 ]))) mid;
  check "remove an interior bit" (remove 2040 s) (List.filter (( <> ) 2040) mid);
  check "33 -> 32 switches to the array layout" (remove 0 (idx_set (evens 0 33)))
    (evens 2 32);
  check "32 -> 33 switches to the bitset layout" (add 64 (idx_set (evens 0 32)))
    (evens 0 33);
  check "remove from the array layout" (remove 4 (idx_set (evens 0 10)))
    (List.filter (( <> ) 4) (evens 0 10))

(* Interval_id.Set packs (owner, seq) into one integer index; the packing
   must preserve the owner-major element order. *)
module Iid_oracle = Set.Make (struct
  type t = Interval_id.t

  let compare = Interval_id.compare
end)

let qcheck_interval_id_set_order =
  QCheck.Test.make ~name:"interval id set: packed index preserves order"
    ~count:500
    QCheck.(list (pair small_nat small_nat))
    (fun pairs ->
      (* seq = -1 is the runtime's definite interval; include it. *)
      let iids =
        List.map
          (fun (o, s) -> Interval_id.make ~owner:(Proc_id.of_int o) ~seq:(s - 1))
          pairs
      in
      List.equal Interval_id.equal
        (Interval_id.Set.elements (Interval_id.Set.of_list iids))
        (Iid_oracle.elements (Iid_oracle.of_list iids)))

(* ------------------------------ Wire ------------------------------ *)

let test_wire_target_and_names () =
  let iid = Interval_id.make ~owner:(Proc_id.of_int 3) ~seq:7 in
  let msgs =
    [
      (Wire.Guess { iid }, "guess");
      (Wire.Affirm { iid; ido = Aid.Set.empty }, "affirm");
      (Wire.Deny { iid }, "deny");
      (Wire.Replace { iid; ido = Aid.Set.empty }, "replace");
      (Wire.Rollback { iid }, "rollback");
    ]
  in
  List.iter
    (fun (w, name) ->
      Alcotest.(check string) "type name" name (Wire.type_name w);
      Alcotest.(check bool) "target" true (Interval_id.equal (Wire.target w) iid))
    msgs

(* ---------------------------- Envelope ---------------------------- *)

let test_envelope_accessors () =
  let src = Proc_id.of_int 1 and dst = Proc_id.of_int 2 in
  let tags = Aid.Set.singleton (Aid.of_proc (Proc_id.of_int 9)) in
  let user = Envelope.make ~id:5 ~src ~dst (Envelope.User { value = Value.Int 3; tags }) in
  let ctl =
    Envelope.make ~id:6 ~src ~dst
      (Envelope.Control (Wire.Deny { iid = Interval_id.make ~owner:dst ~seq:0 }))
  in
  Alcotest.(check bool) "user is user" true (Envelope.is_user user);
  Alcotest.(check bool) "ctl is control" true (Envelope.is_control ctl);
  Alcotest.(check bool) "value" true (Value.equal (Envelope.value user) (Value.Int 3));
  Alcotest.(check bool) "tags" true (Aid.Set.equal (Envelope.tags user) tags);
  Alcotest.(check bool) "control has no tags" true (Aid.Set.is_empty (Envelope.tags ctl));
  Alcotest.(check bool) "value of control raises" true
    (try ignore (Envelope.value ctl); false with Invalid_argument _ -> true)

let () =
  Alcotest.run "types"
    [
      ( "value",
        [
          QCheck_alcotest.to_alcotest qcheck_value_equal_reflexive;
          QCheck_alcotest.to_alcotest qcheck_value_size_positive;
          QCheck_alcotest.to_alcotest qcheck_value_triple_roundtrip;
          test "inequality" test_value_inequality;
          test "projections raise on mismatch" test_value_projections_raise;
        ] );
      ( "identifiers",
        [
          QCheck_alcotest.to_alcotest qcheck_interval_id_order_total;
          test "interval order is owner-major" test_interval_id_owner_major;
          test "aid roundtrip" test_aid_roundtrip;
          test "aid set printing" test_aid_set_pp;
        ] );
      ( "aid-set",
        [
          QCheck_alcotest.to_alcotest qcheck_aid_set_vs_oracle;
          QCheck_alcotest.to_alcotest qcheck_aid_set_queries_vs_oracle;
          QCheck_alcotest.to_alcotest qcheck_aid_set_canonical;
          QCheck_alcotest.to_alcotest qcheck_aid_set_fold_order;
          QCheck_alcotest.to_alcotest qcheck_aid_set_edits_vs_oracle;
          QCheck_alcotest.to_alcotest qcheck_aid_set_canonical_chains;
          test "aid set: layout edges of one-element edits" test_aid_set_edit_edges;
          QCheck_alcotest.to_alcotest qcheck_interval_id_set_order;
        ] );
      ("wire", [ test "targets and names" test_wire_target_and_names ]);
      ("envelope", [ test "accessors" test_envelope_accessors ]);
    ]
