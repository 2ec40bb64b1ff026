open Hope_types

type kind = Explicit | Implicit
type fate = Live | Finalized | Rolled_back

type interval = {
  iid : Interval_id.t;
  kind : kind;
  started_at : float;
  ido0 : Aid.Set.t;
  mutable ido : Aid.Set.t;
  mutable udo : Aid.Set.t;
  mutable iha : Aid.Set.t;
  mutable ihd : Aid.Set.t;
  mutable cut : bool;
  mutable fate : fate;
}

(* Live intervals are [buf.(head) .. buf.(head + len - 1)], oldest first.
   Finalization advances [head]; rollback shrinks [len]; push appends
   (compacting/growing the array when the tail is reached). Compared to
   the previous newest-first list this makes [oldest]/[current] O(1) and
   [find] O(log n) (live sequence numbers are strictly increasing), and
   gives the cumulative-set caches a stable addressing scheme.

   The cumulative IDO (the tag of every speculative send) and UDO are
   cached instead of re-folded per call. Tests and [Control] mutate
   interval [ido]/[udo] fields directly, so the cache cannot rely on
   being notified: each cached fold stores, per covered interval, the
   set it folded in, and a cache hit requires every live interval's
   current set to be that very set ([==]: sets are immutable, so an
   unchanged field still holds it) — an allocation-free O(depth) pointer
   scan. Push extends a valid cache with one union; any mutation or
   truncation is caught by the stamp scan and triggers a lazy refold.

   Every pushed interval also stays on [pushed] (newest first) after it
   leaves the window, its [fate] written as it goes: the history is the
   record of the run that [Explain] and [Invariant] read. *)
type t = {
  hist_owner : Proc_id.t;
  mutable buf : interval array;
  mutable head : int;
  mutable len : int;
  mutable next_seq : int;
  mutable pushed : interval list;
  mutable finalized : int;
  mutable rolled : int;
  mutable ido_stamp : Aid.Set.t array;  (** parallel to [buf] *)
  mutable udo_stamp : Aid.Set.t array;
  mutable cum_ido : Aid.Set.t;
  mutable cum_ido_from : int;  (** [head] value the cache was built at *)
  mutable cum_ido_count : int;  (** [len] value; -1 forces a refold *)
  mutable cum_udo : Aid.Set.t;
  mutable cum_udo_from : int;
  mutable cum_udo_count : int;
}

let create owner =
  {
    hist_owner = owner;
    buf = [||];
    head = 0;
    len = 0;
    next_seq = 0;
    pushed = [];
    finalized = 0;
    rolled = 0;
    ido_stamp = [||];
    udo_stamp = [||];
    cum_ido = Aid.Set.empty;
    cum_ido_from = 0;
    cum_ido_count = 0;
    cum_udo = Aid.Set.empty;
    cum_udo_from = 0;
    cum_udo_count = 0;
  }

let owner t = t.hist_owner

(* ------------------------------------------------------------------ *)
(* Cumulative-set caches                                               *)
(* ------------------------------------------------------------------ *)

(* Top-level recursion (not a closure) keeps the per-send validity scan
   allocation-free. *)
let rec ido_stamps_ok t i stop =
  i >= stop
  || (t.ido_stamp.(i) == t.buf.(i).ido && ido_stamps_ok t (i + 1) stop)

let rec udo_stamps_ok t i stop =
  i >= stop
  || (t.udo_stamp.(i) == t.buf.(i).udo && udo_stamps_ok t (i + 1) stop)

let ido_cache_valid t =
  t.cum_ido_count = t.len
  && t.cum_ido_from = t.head
  && ido_stamps_ok t t.head (t.head + t.len)

let udo_cache_valid t =
  t.cum_udo_count = t.len
  && t.cum_udo_from = t.head
  && udo_stamps_ok t t.head (t.head + t.len)

let cumulative_ido t =
  if not (ido_cache_valid t) then begin
    let acc = ref Aid.Set.empty in
    for i = t.head to t.head + t.len - 1 do
      let s = t.buf.(i).ido in
      t.ido_stamp.(i) <- s;
      acc := Aid.Set.union !acc s
    done;
    t.cum_ido <- !acc;
    t.cum_ido_from <- t.head;
    t.cum_ido_count <- t.len
  end;
  t.cum_ido

let cumulative_udo t =
  if not (udo_cache_valid t) then begin
    let acc = ref Aid.Set.empty in
    for i = t.head to t.head + t.len - 1 do
      let s = t.buf.(i).udo in
      t.udo_stamp.(i) <- s;
      acc := Aid.Set.union !acc s
    done;
    t.cum_udo <- !acc;
    t.cum_udo_from <- t.head;
    t.cum_udo_count <- t.len
  end;
  t.cum_udo

(* ------------------------------------------------------------------ *)
(* Window management                                                   *)
(* ------------------------------------------------------------------ *)

let push t ~kind ~ido ~now =
  let iid = Interval_id.make ~owner:t.hist_owner ~seq:t.next_seq in
  t.next_seq <- t.next_seq + 1;
  let itv =
    {
      iid;
      kind;
      started_at = now;
      ido0 = ido;
      ido;
      udo = Aid.Set.empty;
      iha = Aid.Set.empty;
      ihd = Aid.Set.empty;
      cut = false;
      fate = Live;
    }
  in
  t.pushed <- itv :: t.pushed;
  (* Capture cache validity before the window moves. *)
  let ido_valid = ido_cache_valid t in
  let udo_valid = udo_cache_valid t in
  if t.head + t.len >= Array.length t.buf then begin
    (* Out of room at the tail: compact live intervals to the front of a
       fresh (possibly larger) array. [itv] doubles as the filler. *)
    let ncap = max 8 ((t.len + 1) * 2) in
    let nbuf = Array.make ncap itv in
    Array.blit t.buf t.head nbuf 0 t.len;
    let nido = Array.make ncap Aid.Set.empty
    and nudo = Array.make ncap Aid.Set.empty in
    Array.blit t.ido_stamp t.head nido 0 t.len;
    Array.blit t.udo_stamp t.head nudo 0 t.len;
    t.buf <- nbuf;
    t.ido_stamp <- nido;
    t.udo_stamp <- nudo;
    t.head <- 0;
    if ido_valid then t.cum_ido_from <- 0 else t.cum_ido_count <- -1;
    if udo_valid then t.cum_udo_from <- 0 else t.cum_udo_count <- -1
  end;
  let pos = t.head + t.len in
  t.buf.(pos) <- itv;
  t.len <- t.len + 1;
  if ido_valid then begin
    t.cum_ido <- Aid.Set.union t.cum_ido ido;
    t.ido_stamp.(pos) <- ido;
    t.cum_ido_count <- t.len
  end
  else t.cum_ido_count <- -1;
  if udo_valid then begin
    (* the new interval's UDO is empty: the cached union is unchanged *)
    t.udo_stamp.(pos) <- itv.udo;
    t.cum_udo_count <- t.len
  end
  else t.cum_udo_count <- -1;
  itv

let intervals t = List.rev t.pushed

let live t =
  let rec go i acc = if i < t.head then acc else go (i - 1) (t.buf.(i) :: acc) in
  go (t.head + t.len - 1) []

let iter_live f t =
  for i = t.head to t.head + t.len - 1 do
    f t.buf.(i)
  done

let depth t = t.len
let current t = if t.len = 0 then None else Some t.buf.(t.head + t.len - 1)

(* Option-free [current] for the per-primitive hot paths: callers check
   [depth] first. *)
let top_exn t =
  if t.len = 0 then raise Not_found else t.buf.(t.head + t.len - 1)
let oldest t = if t.len = 0 then None else Some t.buf.(t.head)

(* Live sequence numbers increase strictly with position, so lookup is a
   binary search over the window. Returns the buffer position. *)
let find_pos t iid =
  if t.len = 0 || not (Proc_id.equal (Interval_id.owner iid) t.hist_owner) then
    None
  else begin
    let seq = Interval_id.seq iid in
    let rec go lo hi =
      if lo > hi then None
      else begin
        let mid = (lo + hi) / 2 in
        let s = Interval_id.seq t.buf.(mid).iid in
        if s = seq then Some mid else if s < seq then go (mid + 1) hi else go lo (mid - 1)
      end
    in
    go t.head (t.head + t.len - 1)
  end

let find t iid =
  match find_pos t iid with None -> None | Some pos -> Some t.buf.(pos)

let depends_on t x =
  Aid.Set.mem x (cumulative_ido t) || Aid.Set.mem x (cumulative_udo t)

let first_depending t x =
  let rec go i =
    if i >= t.head + t.len then None
    else begin
      let itv = t.buf.(i) in
      if Aid.Set.mem x itv.ido then Some itv else go (i + 1)
    end
  in
  go t.head

let truncate_from t iid =
  match find_pos t iid with
  | None -> []
  | Some pos ->
    let removed = ref [] in
    for i = t.head + t.len - 1 downto pos do
      t.buf.(i).fate <- Rolled_back;
      removed := t.buf.(i) :: !removed
    done;
    t.rolled <- t.rolled + (t.head + t.len - pos);
    t.len <- pos - t.head;
    (* The removed suffix may have carried dependencies. *)
    t.cum_ido_count <- -1;
    t.cum_udo_count <- -1;
    !removed

let drop_oldest_finalized t =
  if t.len = 0 then None
  else begin
    let old = t.buf.(t.head) in
    if Aid.Set.is_empty old.ido then begin
      let ido_valid = ido_cache_valid t in
      let udo_valid = udo_cache_valid t && Aid.Set.is_empty old.udo in
      t.head <- t.head + 1;
      t.len <- t.len - 1;
      old.fate <- Finalized;
      t.finalized <- t.finalized + 1;
      (* The dropped IDO is empty, so a valid cached union is unchanged;
         a dropped non-empty UDO shrinks the cumulative UDO, so refold. *)
      if ido_valid then begin
        t.cum_ido_from <- t.head;
        t.cum_ido_count <- t.len
      end
      else t.cum_ido_count <- -1;
      if udo_valid then begin
        t.cum_udo_from <- t.head;
        t.cum_udo_count <- t.len
      end
      else t.cum_udo_count <- -1;
      Some old
    end
    else None
  end

let finalized_count t = t.finalized
let rolled_back_count t = t.rolled

let pp_kind ppf = function
  | Explicit -> Format.pp_print_string ppf "guess"
  | Implicit -> Format.pp_print_string ppf "recv"

let pp ppf t =
  Format.fprintf ppf "@[<v>history of %a (finalized=%d rolled=%d):@," Proc_id.pp
    t.hist_owner t.finalized t.rolled;
  iter_live
    (fun itv ->
      Format.fprintf ppf "  %a %a ido=%a udo=%a iha=%a@," Interval_id.pp itv.iid
        pp_kind itv.kind Aid.Set.pp itv.ido Aid.Set.pp itv.udo Aid.Set.pp
        itv.iha)
    t;
  Format.fprintf ppf "@]"
