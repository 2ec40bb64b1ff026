open Hope_types

(* Entries live in parallel pooled arrays (a tag byte plus three payload
   columns) rather than an array of variants: pushing an undo record on
   the speculative hot path is then three stores and a length bump, no
   allocation in steady state. Segments mirror the runtime's [History]
   window one-to-one — created when an interval registers its checkpoint,
   dropped as a suffix by rollback, dropped from the front by finalize —
   so both views share the head/length-over-array discipline and grow by
   sliding live elements down when the released prefix gets large enough
   to pay for the blit. *)

type ('a, 'ck) t = {
  (* entry columns; valid window is [e_head, e_head + e_len) *)
  mutable kinds : Bytes.t;  (** ['\000'] consume, ['\001'] send *)
  mutable e_claim : 'a array;  (** consume: the claimed arrival *)
  mutable e_msg : int array;  (** send: message id *)
  mutable e_dst : int array;  (** send: destination pid *)
  mutable e_head : int;
  mutable e_len : int;
  (* segment columns; valid window is [s_head, s_head + s_len) *)
  mutable seg_iid : Interval_id.t array;
  mutable seg_start : int array;  (** first entry index of the segment *)
  mutable seg_ck : 'ck array;
  mutable s_head : int;
  mutable s_len : int;
  dummy : 'a;  (** scrub value for released claim slots *)
  dummy_ck : 'ck;  (** scrub value for released checkpoint slots *)
}

let dummy_iid = Interval_id.make ~owner:(Proc_id.of_int (-1)) ~seq:(-1)

let create ~dummy ~dummy_ck () =
  {
    kinds = Bytes.empty;
    e_claim = [||];
    e_msg = [||];
    e_dst = [||];
    e_head = 0;
    e_len = 0;
    seg_iid = [||];
    seg_start = [||];
    seg_ck = [||];
    s_head = 0;
    s_len = 0;
    dummy;
    dummy_ck;
  }

let entries j = j.e_len
let segments j = j.s_len

(* Rebase segment starts after the entry window slides to offset 0. *)
let rebase_starts j shift =
  for i = j.s_head to j.s_head + j.s_len - 1 do
    j.seg_start.(i) <- j.seg_start.(i) - shift
  done

(* Make room for one more entry. When at least half the array is released
   prefix, slide the window down (amortized O(1) per push); otherwise
   double. Both paths scrub abandoned claim slots so finalized arrivals
   are not retained through the pool. *)
let entry_room j =
  let cap = Array.length j.e_claim in
  if j.e_head + j.e_len = cap then
    if 2 * j.e_head > cap then begin
      Bytes.blit j.kinds j.e_head j.kinds 0 j.e_len;
      Array.blit j.e_claim j.e_head j.e_claim 0 j.e_len;
      Array.blit j.e_msg j.e_head j.e_msg 0 j.e_len;
      Array.blit j.e_dst j.e_head j.e_dst 0 j.e_len;
      Array.fill j.e_claim j.e_len j.e_head j.dummy;
      rebase_starts j j.e_head;
      j.e_head <- 0
    end
    else begin
      let ncap = max 16 (2 * cap) in
      let kinds = Bytes.make ncap '\000' in
      Bytes.blit j.kinds j.e_head kinds 0 j.e_len;
      let claim = Array.make ncap j.dummy in
      Array.blit j.e_claim j.e_head claim 0 j.e_len;
      let msg = Array.make ncap (-1) in
      Array.blit j.e_msg j.e_head msg 0 j.e_len;
      let dst = Array.make ncap (-1) in
      Array.blit j.e_dst j.e_head dst 0 j.e_len;
      j.kinds <- kinds;
      j.e_claim <- claim;
      j.e_msg <- msg;
      j.e_dst <- dst;
      if j.e_head > 0 then rebase_starts j j.e_head;
      j.e_head <- 0
    end

let segment_room j =
  let cap = Array.length j.seg_iid in
  if j.s_head + j.s_len = cap then
    if 2 * j.s_head > cap then begin
      Array.blit j.seg_iid j.s_head j.seg_iid 0 j.s_len;
      Array.blit j.seg_start j.s_head j.seg_start 0 j.s_len;
      Array.blit j.seg_ck j.s_head j.seg_ck 0 j.s_len;
      Array.fill j.seg_iid j.s_len j.s_head dummy_iid;
      Array.fill j.seg_ck j.s_len j.s_head j.dummy_ck;
      j.s_head <- 0
    end
    else begin
      let ncap = max 8 (2 * cap) in
      let iid = Array.make ncap dummy_iid in
      Array.blit j.seg_iid j.s_head iid 0 j.s_len;
      let start = Array.make ncap 0 in
      Array.blit j.seg_start j.s_head start 0 j.s_len;
      let ck = Array.make ncap j.dummy_ck in
      Array.blit j.seg_ck j.s_head ck 0 j.s_len;
      j.seg_iid <- iid;
      j.seg_start <- start;
      j.seg_ck <- ck;
      j.s_head <- 0
    end

let open_segment j ~iid ~ck =
  segment_room j;
  let i = j.s_head + j.s_len in
  j.seg_iid.(i) <- iid;
  j.seg_start.(i) <- j.e_head + j.e_len;
  j.seg_ck.(i) <- ck;
  j.s_len <- j.s_len + 1

let push_consume j a =
  if j.s_len = 0 then invalid_arg "Journal.push_consume: no open segment";
  entry_room j;
  let i = j.e_head + j.e_len in
  Bytes.unsafe_set j.kinds i '\000';
  j.e_claim.(i) <- a;
  j.e_len <- j.e_len + 1

let push_send j ~msg_id ~dst =
  if j.s_len = 0 then invalid_arg "Journal.push_send: no open segment";
  entry_room j;
  let i = j.e_head + j.e_len in
  Bytes.unsafe_set j.kinds i '\001';
  j.e_msg.(i) <- msg_id;
  j.e_dst.(i) <- dst;
  j.e_len <- j.e_len + 1

(* Rollback targets are usually near the top of the stack (denials cut
   the newest speculation first), so the lookup walks newest-first. *)
let find_seg j iid =
  let rec go i =
    if i < j.s_head then -1
    else if Interval_id.equal j.seg_iid.(i) iid then i
    else go (i - 1)
  in
  go (j.s_head + j.s_len - 1)

let mem j iid = find_seg j iid >= 0

let rollback_to j iid ~consume ~send =
  let si = find_seg j iid in
  if si < 0 then None
  else begin
    let ck = j.seg_ck.(si) in
    let dropped_segs = j.s_head + j.s_len - si in
    let e_from = j.seg_start.(si) in
    let e_end = j.e_head + j.e_len in
    (* A forward walk is chronological order. Undoing a consumption is a
       flip (order-insensitive), and replaying retractions oldest-first
       keeps the Cancel wire order identical to the eager path's, which
       the byte-deterministic trace contract pins. *)
    for i = e_from to e_end - 1 do
      if Bytes.unsafe_get j.kinds i = '\000' then consume j.e_claim.(i)
      else send ~msg_id:j.e_msg.(i) ~dst:j.e_dst.(i)
    done;
    Array.fill j.e_claim e_from (e_end - e_from) j.dummy;
    j.e_len <- e_from - j.e_head;
    Array.fill j.seg_iid si dropped_segs dummy_iid;
    Array.fill j.seg_ck si dropped_segs j.dummy_ck;
    j.s_len <- si - j.s_head;
    Some (ck, dropped_segs)
  end

let release_oldest j iid ~consume =
  if j.s_len = 0 || not (Interval_id.equal j.seg_iid.(j.s_head) iid) then false
  else begin
    let e_from = j.seg_start.(j.s_head) in
    let e_to =
      if j.s_len > 1 then j.seg_start.(j.s_head + 1) else j.e_head + j.e_len
    in
    (* Send entries need no action on release: the interval finalized, so
       its messages are definite and can no longer be retracted. *)
    for i = e_from to e_to - 1 do
      if Bytes.unsafe_get j.kinds i = '\000' then consume j.e_claim.(i);
      j.e_claim.(i) <- j.dummy
    done;
    j.seg_iid.(j.s_head) <- dummy_iid;
    j.seg_ck.(j.s_head) <- j.dummy_ck;
    j.s_head <- j.s_head + 1;
    j.s_len <- j.s_len - 1;
    j.e_len <- j.e_len - (e_to - e_from);
    j.e_head <- e_to;
    true
  end
