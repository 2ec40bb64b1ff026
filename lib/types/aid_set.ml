(* Hybrid integer sets behind Aid.Set / Interval_id.Set.
   See aid_set.mli for the design rationale. Invariants:

   - Arr payloads are sorted, duplicate-free, and never mutated after
     construction.
   - Bits payloads (dense element domains only) are used exactly when
     [E.dense && cardinal > small_max]; the word array is trimmed (first
     and last words non-zero) so the representation is canonical — the
     layout is a pure function of the element set, which [equal] relies
     on.
   - Sets are plain immutable values and the module keeps no table, so
     runtimes on different domains can build and share sets freely. *)

let small_max = 32
let bits_per_word = 63

module type ELT = sig
  type t

  val index : t -> int
  val of_index : int -> t
  val pp : Format.formatter -> t -> unit
  val dense : bool
end

module type S = sig
  type elt
  type t

  val empty : t
  val is_empty : t -> bool
  val mem : elt -> t -> bool
  val add : elt -> t -> t
  val singleton : elt -> t
  val remove : elt -> t -> t
  val union : t -> t -> t
  val inter : t -> t -> t
  val diff : t -> t -> t
  val count_fold_diff : (elt -> 'acc -> 'acc) -> t -> t -> t -> 'acc -> int * 'acc
  val disjoint : t -> t -> bool
  val subset : t -> t -> bool
  val equal : t -> t -> bool
  val cardinal : t -> int
  val elements : t -> elt list
  val of_list : elt list -> t
  val fold : (elt -> 'acc -> 'acc) -> t -> 'acc -> 'acc
  val iter : (elt -> unit) -> t -> unit
  val exists : (elt -> bool) -> t -> bool
  val for_all : (elt -> bool) -> t -> bool
  val filter : (elt -> bool) -> t -> t
  val choose_opt : t -> elt option
  val min_elt_opt : t -> elt option
  val pp : Format.formatter -> t -> unit
end

type stats = { unions_memoized : int; unions_computed : int }

let stats () = { unions_memoized = 0; unions_computed = 0 }

module Make (E : ELT) = struct
  type elt = E.t

  type repr =
    | Arr of int array  (** sorted, duplicate-free *)
    | Bits of { off : int; words : int array }
        (** bit [b] of [words.(w)] set iff index [(off + w) * 63 + b] is a
            member; trimmed so the first and last words are non-zero *)

  type t = { card : int; repr : repr }

  (* ------------------------------------------------------------------ *)
  (* Raw representation helpers                                          *)
  (* ------------------------------------------------------------------ *)

  let repr_equal a b =
    match (a, b) with
    | Arr x, Arr y ->
      let n = Array.length x in
      n = Array.length y
      &&
      let rec go i = i >= n || (x.(i) = y.(i) && go (i + 1)) in
      go 0
    | Bits { off = o1; words = w1 }, Bits { off = o2; words = w2 } ->
      o1 = o2
      &&
      let n = Array.length w1 in
      n = Array.length w2
      &&
      let rec go i = i >= n || (w1.(i) = w2.(i) && go (i + 1)) in
      go 0
    | Arr _, Bits _ | Bits _, Arr _ -> false

  (* Population count of a 63-bit word, a word at a time (SWAR): the bits
     are summed in pairs, then nibbles, then bytes, and one multiply
     gathers the byte sums into the top byte. [lsr] moves bit 62 (the sign
     bit) like any other, the 64-bit masks keep their low 63 bits, and the
     sum (at most 63) fits the top byte's 7 bits. *)
  let[@inline] popcount x =
    let x = x - ((x lsr 1) land 0x5555_5555_5555_5555) in
    let x =
      (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333)
    in
    let x = (x + (x lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
    (x * 0x0101_0101_0101_0101) lsr 56

  (* Trailing zeros of a one-bit word: the population count of the ones
     below its bit. *)
  let ctz_bit b = popcount (b - 1)

  (* Fold [f] over the member indices of a bitset, ascending. Each word is
     walked by its set bits, lowest first, instead of testing all 63
     positions. *)
  let fold_bits f off words acc =
    let acc = ref acc in
    for wi = 0 to Array.length words - 1 do
      let base = (off + wi) * bits_per_word in
      let w = ref words.(wi) in
      while !w <> 0 do
        let low = !w land - !w in
        acc := f (base + ctz_bit low) !acc;
        w := !w lxor low
      done
    done;
    !acc

  let bits_to_array card off words =
    let out = Array.make card 0 in
    ignore
      (fold_bits
         (fun x k ->
           out.(k) <- x;
           k + 1)
         off words 0
        : int);
    out

  let empty = { card = 0; repr = Arr [||] }

  (* Canonical constructor from a sorted duplicate-free index array. *)
  let of_sorted_unique a =
    let card = Array.length a in
    if card = 0 then empty
    else if (not E.dense) || card <= small_max then { card; repr = Arr a }
    else begin
      let lo = a.(0) / bits_per_word and hi = a.(card - 1) / bits_per_word in
      let words = Array.make (hi - lo + 1) 0 in
      Array.iter
        (fun x ->
          let w = (x / bits_per_word) - lo in
          words.(w) <- words.(w) lor (1 lsl (x mod bits_per_word)))
        a;
      { card; repr = Bits { off = lo; words } }
    end

  (* Canonical constructor from an untrimmed word array starting at word
     [off]. Takes ownership of [words]. *)
  let of_words off words =
    let card = Array.fold_left (fun n w -> n + popcount w) 0 words in
    if card = 0 then empty
    else if card <= small_max then of_sorted_unique (bits_to_array card off words)
    else begin
      let n = Array.length words in
      let lo = ref 0 in
      while words.(!lo) = 0 do
        incr lo
      done;
      let hi = ref (n - 1) in
      while words.(!hi) = 0 do
        decr hi
      done;
      let words =
        if !lo = 0 && !hi = n - 1 then words
        else Array.sub words !lo (!hi - !lo + 1)
      in
      { card; repr = Bits { off = off + !lo; words } }
    end

  let mem_idx x t =
    match t.repr with
    | Arr a ->
      let lo = ref 0 and hi = ref (Array.length a - 1) and found = ref false in
      while (not !found) && !lo <= !hi do
        let mid = (!lo + !hi) / 2 in
        let v = a.(mid) in
        if v = x then found := true
        else if v < x then lo := mid + 1
        else hi := mid - 1
      done;
      !found
    | Bits { off; words } ->
      let w = (x / bits_per_word) - off in
      w >= 0
      && w < Array.length words
      && words.(w) land (1 lsl (x mod bits_per_word)) <> 0

  let to_idx_array t =
    match t.repr with
    | Arr a -> a (* shared: Arr payloads are immutable *)
    | Bits { off; words } -> bits_to_array t.card off words

  (* ------------------------------------------------------------------ *)
  (* Word-level bitset edits                                             *)
  (* ------------------------------------------------------------------ *)

  (* The bitset [card, off, words] with the sorted indices [a] added: the
     words are copied once into the range widened to reach [a], then one
     bit is set per index. Both ends of the range hold a member and the
     cardinal only grows, so the result is canonical as built. *)
  let bits_add_sorted card off words a =
    let n = Array.length words in
    let lo = min off (a.(0) / bits_per_word)
    and hi = max (off + n - 1) (a.(Array.length a - 1) / bits_per_word) in
    let out = Array.make (hi - lo + 1) 0 in
    Array.blit words 0 out (off - lo) n;
    let card = ref card in
    Array.iter
      (fun x ->
        let wi = (x / bits_per_word) - lo and m = 1 lsl (x mod bits_per_word) in
        if out.(wi) land m = 0 then begin
          out.(wi) <- out.(wi) lor m;
          incr card
        end)
      a;
    { card = !card; repr = Bits { off = lo; words = out } }

  (* The bitset [card, off, words] without its member [x]: one copy of the
     words, trimmed when [x] was the only bit of the first or last word; the
     array layout (through [of_words]) once [small_max] elements remain. *)
  let bits_remove card off words x =
    let n = Array.length words and wi = (x / bits_per_word) - off in
    let w = words.(wi) land lnot (1 lsl (x mod bits_per_word)) in
    if card - 1 <= small_max then begin
      let words = Array.copy words in
      words.(wi) <- w;
      of_words off words
    end
    else begin
      let lo = ref 0 and hi = ref (n - 1) in
      if w = 0 && wi = 0 then begin
        lo := 1;
        while words.(!lo) = 0 do
          incr lo
        done
      end
      else if w = 0 && wi = n - 1 then begin
        hi := n - 2;
        while words.(!hi) = 0 do
          decr hi
        done
      end;
      let out = Array.sub words !lo (!hi - !lo + 1) in
      if wi >= !lo && wi <= !hi then out.(wi - !lo) <- w;
      { card = card - 1; repr = Bits { off = off + !lo; words = out } }
    end

  (* ------------------------------------------------------------------ *)
  (* Union                                                               *)
  (* ------------------------------------------------------------------ *)

  let merge_arrays a b =
    let na = Array.length a and nb = Array.length b in
    let out = Array.make (na + nb) 0 in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < na && !j < nb do
      let x = a.(!i) and y = b.(!j) in
      if x < y then begin
        out.(!k) <- x;
        incr i
      end
      else if x > y then begin
        out.(!k) <- y;
        incr j
      end
      else begin
        out.(!k) <- x;
        incr i;
        incr j
      end;
      incr k
    done;
    while !i < na do
      out.(!k) <- a.(!i);
      incr i;
      incr k
    done;
    while !j < nb do
      out.(!k) <- b.(!j);
      incr j;
      incr k
    done;
    if !k = na + nb then out else Array.sub out 0 !k

  let union a b =
    if a == b || b.card = 0 then a
    else if a.card = 0 then b
    else
      match (a.repr, b.repr) with
      | Bits { off = o1; words = w1 }, Bits { off = o2; words = w2 } ->
        let lo = min o1 o2 in
        let hi = max (o1 + Array.length w1) (o2 + Array.length w2) in
        let words = Array.make (hi - lo) 0 in
        Array.iteri (fun i w -> words.(o1 - lo + i) <- w) w1;
        Array.iteri
          (fun i w -> words.(o2 - lo + i) <- words.(o2 - lo + i) lor w)
          w2;
        of_words lo words
      | Bits { off; words }, Arr x -> bits_add_sorted a.card off words x
      | Arr x, Bits { off; words } -> bits_add_sorted b.card off words x
      | Arr x, Arr y -> of_sorted_unique (merge_arrays x y)

  (* ------------------------------------------------------------------ *)
  (* Other set operations                                                *)
  (* ------------------------------------------------------------------ *)

  let diff a b =
    if a.card = 0 || a == b then empty
    else if b.card = 0 then a
    else
      match (a.repr, b.repr) with
      | Bits { off = o1; words = w1 }, Bits { off = o2; words = w2 } ->
        let words = Array.copy w1 in
        Array.iteri
          (fun i w ->
            let j = o2 + i - o1 in
            if j >= 0 && j < Array.length words then
              words.(j) <- words.(j) land lnot w)
          w2;
        of_words o1 words
      | _ ->
        let aa = to_idx_array a in
        let out = Array.make (Array.length aa) 0 in
        let k = ref 0 in
        Array.iter
          (fun x ->
            if not (mem_idx x b) then begin
              out.(!k) <- x;
              incr k
            end)
          aa;
        if !k = a.card then a
        else of_sorted_unique (Array.sub out 0 !k)

  let inter a b =
    if a == b then a
    else if a.card = 0 || b.card = 0 then empty
    else
      match (a.repr, b.repr) with
      | Bits { off = o1; words = w1 }, Bits { off = o2; words = w2 } ->
        let lo = max o1 o2
        and hi = min (o1 + Array.length w1) (o2 + Array.length w2) in
        if hi <= lo then empty
        else begin
          let words = Array.make (hi - lo) 0 in
          for i = 0 to hi - lo - 1 do
            words.(i) <- w1.(lo - o1 + i) land w2.(lo - o2 + i)
          done;
          of_words lo words
        end
      | _ ->
        let small, big = if a.card <= b.card then (a, b) else (b, a) in
        let sa = to_idx_array small in
        let out = Array.make (Array.length sa) 0 in
        let k = ref 0 in
        Array.iter
          (fun x ->
            if mem_idx x big then begin
              out.(!k) <- x;
              incr k
            end)
          sa;
        of_sorted_unique (Array.sub out 0 !k)

  (* The members of the sorted array [a] among the indices of word [gw]
     ([gw * 63 .. gw * 63 + 62]), as a word: a binary search for the
     first index at or above the word's base. *)
  let arr_word a gw =
    let base = gw * bits_per_word and n = Array.length a in
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if a.(mid) < base then lo := mid + 1 else hi := mid
    done;
    let m = ref 0 and i = ref !lo in
    while !i < n && a.(!i) < base + bits_per_word do
      m := !m lor (1 lsl (a.(!i) - base));
      incr i
    done;
    !m

  (* [f] over the members in the word [w] at word index [gw], ascending. *)
  let fold_word f gw w acc =
    let base = gw * bits_per_word in
    let acc = ref acc and w = ref w in
    while !w <> 0 do
      let low = !w land - !w in
      acc := f (E.of_index (base + ctz_bit low)) !acc;
      w := !w lxor low
    done;
    !acc

  (* The members of [t] outside the words [lo, hi): a popcount per word
     of a bitset outside the range, a test per element of an array. *)
  let outside t lo hi =
    let n = ref 0 in
    (match t.repr with
    | Bits { off; words } ->
      let len = Array.length words in
      for j = 0 to min len (lo - off) - 1 do
        n := !n + popcount words.(j)
      done;
      for j = max 0 (hi - off) to len - 1 do
        n := !n + popcount words.(j)
      done
    | Arr x ->
      for i = 0 to Array.length x - 1 do
        if x.(i) < lo * bits_per_word || x.(i) >= hi * bits_per_word then incr n
      done);
    !n

  (* One pass over [a]: a member in [b] is counted, a member in neither
     [b] nor [c] is handed to [f]. A bitset is walked by the word, masked
     by the matching words of [b] and [c]; their layouts are read once,
     outside the loop, so a bitset's word is one bounds test away and
     only a non-empty array pays a search per word. The count is [b]'s
     members in [a]'s words less those [a] misses, so a word pays a
     popcount only where [a] lacks some of [b]'s members. On phold-hope's
     Replaces ([a] the replacement set, [b] the UDO) that is about one
     word in six: [a] holds the whole UDO in 31% of them. A popcount on
     every word of [a] fails the tagging bench's fatal Replace gate in
     about half its runs (EXPERIMENTS.md "HASHCONS"). *)
  let count_fold_diff f a b c acc =
    match a.repr with
    | Arr x ->
      let n = ref 0 and acc = ref acc in
      for i = 0 to Array.length x - 1 do
        let v = x.(i) in
        if mem_idx v b then incr n
        else if not (mem_idx v c) then acc := f (E.of_index v) !acc
      done;
      (!n, !acc)
    | Bits { off; words } ->
      let bo, bw, ba =
        match b.repr with
        | Bits { off; words } -> (off, words, [||])
        | Arr x -> (0, [||], x)
      and co, cw, ca =
        match c.repr with
        | Bits { off; words } -> (off, words, [||])
        | Arr x -> (0, [||], x)
      in
      let len = Array.length words and nb = Array.length bw and nc = Array.length cw in
      let b_arr = Array.length ba > 0 and c_arr = Array.length ca > 0 in
      let missed = ref 0 and acc = ref acc in
      for wi = 0 to len - 1 do
        let gw = off + wi and aw = Array.unsafe_get words wi in
        let inb =
          if b_arr then arr_word ba gw
          else if gw >= bo && gw - bo < nb then Array.unsafe_get bw (gw - bo)
          else 0
        in
        let m = inb land lnot aw in
        if m <> 0 then missed := !missed + popcount m;
        let w = aw land lnot inb in
        if w <> 0 then begin
          let inc =
            if c_arr then arr_word ca gw
            else if gw >= co && gw - co < nc then Array.unsafe_get cw (gw - co)
            else 0
          in
          let w = w land lnot inc in
          if w <> 0 then acc := fold_word f gw w !acc
        end
      done;
      (b.card - outside b off (off + len) - !missed, !acc)

  let disjoint a b =
    if a.card = 0 || b.card = 0 then true
    else if a == b then false
    else
      match (a.repr, b.repr) with
      | Arr x, Arr y ->
        let na = Array.length x and nb = Array.length y in
        let rec go i j =
          if i >= na || j >= nb then true
          else if x.(i) = y.(j) then false
          else if x.(i) < y.(j) then go (i + 1) j
          else go i (j + 1)
        in
        go 0 0
      | Bits { off = o1; words = w1 }, Bits { off = o2; words = w2 } ->
        let lo = max o1 o2
        and hi = min (o1 + Array.length w1) (o2 + Array.length w2) in
        let rec go i =
          i >= hi - lo
          || (w1.(lo - o1 + i) land w2.(lo - o2 + i) = 0 && go (i + 1))
        in
        hi <= lo || go 0
      | Arr x, Bits _ -> Array.for_all (fun v -> not (mem_idx v b)) x
      | Bits _, Arr y -> Array.for_all (fun v -> not (mem_idx v a)) y

  let subset a b =
    a == b || a.card = 0
    || a.card <= b.card
       &&
       match (a.repr, b.repr) with
       | Bits { off = o1; words = w1 }, Bits { off = o2; words = w2 } ->
         let n2 = Array.length w2 in
         let ok = ref true in
         Array.iteri
           (fun i w ->
             if !ok && w <> 0 then begin
               let j = o1 + i - o2 in
               if j < 0 || j >= n2 || w land lnot w2.(j) <> 0 then ok := false
             end)
           w1;
         !ok
       | Arr x, _ -> Array.for_all (fun v -> mem_idx v b) x
       | Bits _, Arr _ ->
         (* a is Bits so card a > small_max, but b is Arr so (dense) card b
            <= small_max < card a: the cardinal guard already failed. *)
         false

  (* The layout is canonical, so equal sets have equal layouts. *)
  let equal a b = a == b || (a.card = b.card && repr_equal a.repr b.repr)

  (* ------------------------------------------------------------------ *)
  (* Element-level API                                                   *)
  (* ------------------------------------------------------------------ *)

  let is_empty t = t.card = 0
  let cardinal t = t.card
  let mem x t = mem_idx (E.index x) t

  let singleton x = of_sorted_unique [| E.index x |]

  (* A bitset is edited by the word; an array goes through [union] or
     [diff] with the singleton. *)
  let add x t =
    let i = E.index x in
    if mem_idx i t then t
    else
      match t.repr with
      | Bits { off; words } -> bits_add_sorted t.card off words [| i |]
      | Arr _ -> union t (singleton x)

  let remove x t =
    let i = E.index x in
    if not (mem_idx i t) then t
    else
      match t.repr with
      | Bits { off; words } -> bits_remove t.card off words i
      | Arr _ -> diff t (singleton x)

  let of_list l =
    match l with
    | [] -> empty
    | [ x ] -> singleton x
    | _ ->
      let a = Array.of_list (List.map E.index l) in
      Array.sort Stdlib.compare a;
      let n = Array.length a in
      let k = ref 1 in
      for i = 1 to n - 1 do
        if a.(i) <> a.(!k - 1) then begin
          a.(!k) <- a.(i);
          incr k
        end
      done;
      of_sorted_unique (if !k = n then a else Array.sub a 0 !k)

  let fold f t acc =
    match t.repr with
    | Arr a -> Array.fold_left (fun acc i -> f (E.of_index i) acc) acc a
    | Bits { off; words } -> fold_bits (fun i acc -> f (E.of_index i) acc) off words acc

  let iter f t =
    match t.repr with
    | Arr a -> Array.iter (fun i -> f (E.of_index i)) a
    | Bits { off; words } -> fold_bits (fun i () -> f (E.of_index i)) off words ()

  exception Found

  let exists p t =
    match iter (fun e -> if p e then raise_notrace Found) t with
    | () -> false
    | exception Found -> true

  let for_all p t = not (exists (fun e -> not (p e)) t)
  let elements t = List.rev (fold (fun e acc -> e :: acc) t [])
  let filter p t = of_list (List.filter p (elements t))

  let min_elt_opt t =
    if t.card = 0 then None
    else
      match t.repr with
      | Arr a -> Some (E.of_index a.(0))
      | Bits { off; words } ->
        (* trimmed: the first word holds the least member *)
        let w = words.(0) in
        Some (E.of_index ((off * bits_per_word) + ctz_bit (w land -w)))

  let choose_opt = min_elt_opt

  let pp ppf t =
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
         E.pp)
      (elements t)
end
