(* Unit and property tests for the simulation kernel: RNG, heap, metrics,
   vec, and the event engine. *)

module Rng = Hope_sim.Rng
module Heap = Hope_sim.Heap
module Equeue = Hope_sim.Equeue
module Metrics = Hope_sim.Metrics
module Vec = Hope_sim.Vec
module Engine = Hope_sim.Engine

let test name f = Alcotest.test_case name `Quick f

(* ----------------------------- Rng -------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:123 and b = Rng.create ~seed:123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  Alcotest.(check bool) "different seeds differ" true (Rng.bits64 a <> Rng.bits64 b)

let test_rng_split_independent () =
  let parent = Rng.create ~seed:7 in
  let child = Rng.split parent in
  let c1 = Rng.bits64 child in
  (* Drawing more from the parent must not perturb the child. *)
  let parent2 = Rng.create ~seed:7 in
  let child2 = Rng.split parent2 in
  ignore (Rng.bits64 parent2);
  ignore (Rng.bits64 parent2);
  Alcotest.(check int64) "child stream unaffected by parent draws" c1 (Rng.bits64 child2)

let test_rng_copy () =
  let a = Rng.create ~seed:9 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_int_bounds () =
  let r = Rng.create ~seed:5 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.failf "Rng.int out of range: %d" v
  done;
  Alcotest.check_raises "zero bound rejected"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int r 0))

let test_rng_float_bounds () =
  let r = Rng.create ~seed:6 in
  for _ = 1 to 1000 do
    let v = Rng.float r 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.failf "Rng.float out of range: %f" v
  done

let test_rng_bernoulli_extremes () =
  let r = Rng.create ~seed:8 in
  for _ = 1 to 50 do
    Alcotest.(check bool) "p=0 is false" false (Rng.bernoulli r ~p:0.0);
    Alcotest.(check bool) "p=1 is true" true (Rng.bernoulli r ~p:1.0)
  done

let test_rng_mean_sanity () =
  let r = Rng.create ~seed:10 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:3.0
  done;
  let mean = !sum /. float_of_int n in
  if Float.abs (mean -. 3.0) > 0.15 then Alcotest.failf "exponential mean off: %f" mean

let test_rng_normal_moments () =
  let r = Rng.create ~seed:11 in
  let n = 20_000 in
  let sum = ref 0.0 and sum_sq = ref 0.0 in
  for _ = 1 to n do
    let x = Rng.normal r ~mu:5.0 ~sigma:2.0 in
    sum := !sum +. x;
    sum_sq := !sum_sq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sum_sq /. float_of_int n) -. (mean *. mean) in
  if Float.abs (mean -. 5.0) > 0.1 then Alcotest.failf "normal mean off: %f" mean;
  if Float.abs (var -. 4.0) > 0.3 then Alcotest.failf "normal var off: %f" var

let test_rng_shuffle_permutes () =
  let r = Rng.create ~seed:12 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same elements" (Array.init 50 Fun.id) sorted

let qcheck_rng_int_in_range =
  QCheck.Test.make ~name:"rng: int always in [0, bound)" ~count:500
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let r = Rng.create ~seed in
      let v = Rng.int r bound in
      v >= 0 && v < bound)

let qcheck_rng_uniform_in_range =
  QCheck.Test.make ~name:"rng: uniform in [lo, hi)" ~count:500
    QCheck.(triple small_int (float_bound_exclusive 100.0) (float_bound_exclusive 100.0))
    (fun (seed, a, b) ->
      let lo = Float.min a b and hi = Float.max a b +. 1.0 in
      let r = Rng.create ~seed in
      let v = Rng.uniform r ~lo ~hi in
      v >= lo && v < hi)

(* ----------------------------- Heap ------------------------------- *)

let test_heap_orders () =
  let h = Heap.create () in
  List.iter (fun p -> Heap.push h ~priority:p p) [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  let out = ref [] in
  let rec drain () =
    match Heap.pop h with
    | Some (_, v) ->
      out := v :: !out;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list (float 0.0))) "sorted" [ 1.0; 2.0; 3.0; 4.0; 5.0 ]
    (List.rev !out)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  List.iter (fun v -> Heap.push h ~priority:1.0 v) [ "a"; "b"; "c" ];
  let pop () = match Heap.pop h with Some (_, v) -> v | None -> assert false in
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check (list string)) "insertion order among ties" [ "a"; "b"; "c" ]
    [ first; second; third ]

let test_heap_peek_and_clear () =
  let h = Heap.create () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Heap.push h ~priority:2.0 "x";
  Heap.push h ~priority:1.0 "y";
  (match Heap.peek h with
  | Some (p, v) ->
    Alcotest.(check (float 0.0)) "peek priority" 1.0 p;
    Alcotest.(check string) "peek value" "y" v
  | None -> Alcotest.fail "expected peek");
  Alcotest.(check int) "length" 2 (Heap.length h);
  Heap.clear h;
  Alcotest.(check bool) "cleared" true (Heap.is_empty h)

let qcheck_heap_sorts =
  QCheck.Test.make ~name:"heap: pop order equals stable sort" ~count:200
    QCheck.(list (float_bound_exclusive 1000.0))
    (fun priorities ->
      let h = Heap.create () in
      List.iteri (fun i p -> Heap.push h ~priority:p (p, i)) priorities;
      let rec drain acc =
        match Heap.pop h with Some (_, v) -> drain (v :: acc) | None -> List.rev acc
      in
      let popped = drain [] in
      let expected =
        List.mapi (fun i p -> (p, i)) priorities
        |> List.stable_sort (fun (p1, i1) (p2, i2) ->
               match compare p1 p2 with 0 -> compare i1 i2 | c -> c)
      in
      popped = expected)

(* ----------------------------- Equeue ----------------------------- *)

let test_equeue_orders () =
  let q = Equeue.create ~dummy:(-1) () in
  List.iteri (fun i p -> Equeue.push q ~priority:p i) [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  let rec drain acc =
    if Equeue.is_empty q then List.rev acc
    else begin
      let p = Equeue.min_prio q in
      let v = Equeue.pop_min_exn q in
      drain ((p, v) :: acc)
    end
  in
  Alcotest.(check (list (pair (float 0.0) int)))
    "priority order with payloads"
    [ (1.0, 1); (2.0, 3); (3.0, 2); (4.0, 4); (5.0, 0) ]
    (drain [])

let test_equeue_fifo_ties () =
  let q = Equeue.create ~dummy:"" () in
  List.iter (fun v -> Equeue.push q ~priority:1.0 v) [ "a"; "b"; "c" ];
  Equeue.push q ~priority:0.5 "first";
  Equeue.push q ~priority:1.0 "d";
  let rec drain acc =
    if Equeue.is_empty q then List.rev acc
    else drain (Equeue.pop_min_exn q :: acc)
  in
  Alcotest.(check (list string)) "insertion order among equal priorities"
    [ "first"; "a"; "b"; "c"; "d" ] (drain [])

let test_equeue_peek_pop_clear () =
  let q = Equeue.create ~dummy:0 () in
  Alcotest.(check bool) "empty" true (Equeue.is_empty q);
  Alcotest.check_raises "min_prio on empty"
    (Invalid_argument "Equeue.min_prio: empty") (fun () ->
      ignore (Equeue.min_prio q));
  Equeue.push q ~priority:2.0 20;
  Equeue.push q ~priority:1.0 10;
  (match Equeue.peek q with
  | Some (p, v) ->
    Alcotest.(check (float 0.0)) "peek priority" 1.0 p;
    Alcotest.(check int) "peek value" 10 v
  | None -> Alcotest.fail "expected peek");
  Alcotest.(check int) "length" 2 (Equeue.length q);
  Alcotest.(check (option (pair (float 0.0) int))) "pop" (Some (1.0, 10))
    (Equeue.pop q);
  Equeue.clear q;
  Alcotest.(check bool) "cleared" true (Equeue.is_empty q);
  (* The sequence counter resets with the queue, so tie-break order starts
     over: a run restarted from clear behaves like a fresh queue. *)
  Equeue.push q ~priority:1.0 1;
  Alcotest.(check int) "seq restarts after clear" 1 (Equeue.next_seq q)

(* The determinism oracle for the tentpole: on any interleaving of pushes,
   pops, and clears, the unboxed 4-ary queue pops the exact (priority,
   payload) sequence the reference binary heap does — same total
   (priority, seq) order, so swapping the engine's queue cannot reorder
   events with identical timestamps. *)
let qcheck_equeue_matches_heap =
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (6, map (fun p -> `Push p) (float_bound_exclusive 100.0));
          (3, return `Pop);
          (1, return `Clear);
        ])
  in
  let print_op = function
    | `Push p -> Printf.sprintf "push %f" p
    | `Pop -> "pop"
    | `Clear -> "clear"
  in
  QCheck.Test.make ~name:"equeue: oracle equivalence with Heap" ~count:500
    QCheck.(make ~print:(QCheck.Print.list print_op) Gen.(list_size (int_range 0 200) op_gen))
    (fun ops ->
      let q = Equeue.create ~dummy:(-1) () in
      let h = Heap.create () in
      let id = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | `Push p ->
            incr id;
            Equeue.push q ~priority:p !id;
            Heap.push h ~priority:p !id;
            true
          | `Pop -> Equeue.pop q = Heap.pop h
          | `Clear ->
            Equeue.clear q;
            Heap.clear h;
            true)
        ops
      && begin
           (* drain both completely: the tail orders must agree too *)
           let rec drain () =
             match (Equeue.pop q, Heap.pop h) with
             | None, None -> true
             | a, b -> a = b && drain ()
           in
           drain ()
         end)

(* ------------------------- Engine pool ---------------------------- *)

(* The pooled spine must recycle: a long run schedules millions of events
   but allocates only as many records as are ever simultaneously pending
   (plus the pop-before-run window). *)
let test_engine_pool_reuse () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec reschedule t =
    incr count;
    if !count < 10_000 then ignore (Engine.schedule t ~delay:1.0 reschedule)
  in
  ignore (Engine.schedule e ~delay:1.0 reschedule);
  ignore (Engine.run e);
  Alcotest.(check int) "all events ran" 10_000 !count;
  Alcotest.(check bool)
    (Printf.sprintf "pool stayed small (%d records)" (Engine.pool_allocated e))
    true
    (Engine.pool_allocated e <= 4);
  Alcotest.(check int) "every record back on the free list"
    (Engine.pool_allocated e) (Engine.pool_free e)

let test_engine_pool_cancelled_recycled () =
  let e = Engine.create () in
  let fired = ref 0 in
  for _ = 1 to 1000 do
    let h = Engine.schedule e ~delay:1.0 (fun _ -> incr fired) in
    Engine.cancel h
  done;
  ignore (Engine.run e);
  Alcotest.(check int) "none fired" 0 !fired;
  Alcotest.(check int) "records recycled" (Engine.pool_allocated e)
    (Engine.pool_free e)

(* A recycled record must not resurrect an old cancellation: cancelling a
   stale handle (whose event already ran) is a no-op even after the
   record is reused by a new schedule. *)
let test_engine_stale_cancel_harmless () =
  let e = Engine.create () in
  let h1 = Engine.schedule e ~delay:1.0 (fun _ -> ()) in
  ignore (Engine.run e);
  let fired = ref false in
  let _h2 = Engine.schedule e ~delay:1.0 (fun _ -> fired := true) in
  Engine.cancel h1;
  (* stale: its event already ran and the record was recycled *)
  ignore (Engine.run e);
  Alcotest.(check bool) "new event unaffected by stale cancel" true !fired

let qcheck_engine_pool_bounded =
  QCheck.Test.make ~name:"engine: pool bounded by peak pending" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (QCheck.int_range 1 20))
    (fun batches ->
      let e = Engine.create () in
      let peak = List.fold_left max 0 batches in
      List.iter
        (fun n ->
          for _ = 1 to n do
            ignore (Engine.schedule e ~delay:1.0 (fun _ -> ()))
          done;
          ignore (Engine.run e))
        batches;
      (* every batch drains fully, so the pool never exceeds the largest
         batch (the pop-before-release window adds nothing: release
         happens before the handler runs) *)
      Engine.pool_allocated e <= peak
      && Engine.pool_free e = Engine.pool_allocated e)

(* -------------------- Rng reference equivalence -------------------- *)

(* The generator computes SplitMix64 on tagged-int halves (no Int64
   boxing); this pins it bit-for-bit to the textbook Int64 formulation.
   The trace-determinism contract depends on this equivalence. *)
module Rng_ref = struct
  type t = { mutable state : int64 }

  let golden_gamma = 0x9E3779B97F4A7C15L

  let mix z =
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
    in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let bits64 t =
    t.state <- Int64.add t.state golden_gamma;
    mix t.state

  let float t bound =
    let bits = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
    bits /. 9007199254740992.0 *. bound

  let int t bound =
    let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
    v mod bound
end

let test_rng_matches_int64_reference () =
  List.iter
    (fun seed ->
      let a = { Rng_ref.state = Int64.of_int seed } in
      let b = Rng.create ~seed in
      for i = 0 to 1999 do
        match i mod 4 with
        | 0 ->
          let x = Rng_ref.bits64 a and y = Rng.bits64 b in
          if x <> y then
            Alcotest.failf "bits64 mismatch seed=%d i=%d: %Lx <> %Lx" seed i x y
        | 1 ->
          let x = Rng_ref.float a 3.25 and y = Rng.float b 3.25 in
          if x <> y then
            Alcotest.failf "float mismatch seed=%d i=%d: %h <> %h" seed i x y
        | 2 ->
          let x = Rng_ref.int a 1_000_007 and y = Rng.int b 1_000_007 in
          if x <> y then
            Alcotest.failf "int mismatch seed=%d i=%d: %d <> %d" seed i x y
        | _ ->
          let x = Int64.logand (Rng_ref.bits64 a) 1L = 1L and y = Rng.bool b in
          if x <> y then Alcotest.failf "bool mismatch seed=%d i=%d" seed i
      done;
      (* split: the child continues the reference stream seeded by the
         parent's next draw *)
      let a2 = { Rng_ref.state = Rng_ref.bits64 a } and b2 = Rng.split b in
      for _ = 0 to 99 do
        Alcotest.(check int64) "split stream" (Rng_ref.bits64 a2) (Rng.bits64 b2)
      done)
    [ 0; 1; 17; 42; -1; -123456789; max_int; min_int; 0x123456789ABCDEF ]

let test_rng_split_n_reference () =
  (* split_n child i continues the reference stream seeded by the
     parent's (i+1)-th draw — i.e. it is exactly [split] repeated, so
     per-shard streams are pinned to the same Int64 reference model as
     the parent generator. *)
  List.iter
    (fun seed ->
      let a = { Rng_ref.state = Int64.of_int seed } in
      let parent = Rng.create ~seed in
      let children = Rng.split_n parent 5 in
      Alcotest.(check int) "arity" 5 (Array.length children);
      Array.iter
        (fun child ->
          let ref_child = { Rng_ref.state = Rng_ref.bits64 a } in
          for _ = 0 to 49 do
            Alcotest.(check int64) "split_n stream" (Rng_ref.bits64 ref_child)
              (Rng.bits64 child)
          done)
        children;
      (* the parent stream resumes after exactly n draws *)
      Alcotest.(check int64) "parent resumes" (Rng_ref.bits64 a)
        (Rng.bits64 parent))
    [ 0; 42; -7; 0x5DEECE66D ];
  Alcotest.(check int) "zero children" 0 (Array.length (Rng.split_n (Rng.create ~seed:1) 0));
  Alcotest.check_raises "negative count" (Invalid_argument "Rng.split_n: negative count")
    (fun () -> ignore (Rng.split_n (Rng.create ~seed:1) (-1)))

(* ----------------------------- Metrics ---------------------------- *)

let test_metrics_counters () =
  let reg = Metrics.create_registry () in
  let c = Metrics.counter reg "a" in
  Metrics.incr c;
  Metrics.add c 4;
  Alcotest.(check int) "count" 5 (Metrics.count c);
  Alcotest.(check int) "same instrument" 5 (Metrics.count (Metrics.counter reg "a"));
  Alcotest.(check int) "find_counter" 5 (Metrics.find_counter reg "a");
  Alcotest.(check int) "missing counter is 0" 0 (Metrics.find_counter reg "zzz")

let test_metrics_histogram () =
  let reg = Metrics.create_registry () in
  let h = Metrics.histogram reg "lat" in
  for i = 1 to 100 do
    Metrics.observe h (float_of_int i)
  done;
  Alcotest.(check int) "count" 100 (Metrics.hist_count h);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Metrics.hist_min h);
  Alcotest.(check (float 1e-9)) "max" 100.0 (Metrics.hist_max h);
  Alcotest.(check (float 1e-9)) "mean" 50.5 (Metrics.hist_mean h);
  let p50 = Metrics.hist_percentile h 50.0 in
  if p50 < 45.0 || p50 > 56.0 then Alcotest.failf "p50 off: %f" p50;
  let sd = Metrics.hist_stddev h in
  if Float.abs (sd -. 29.0) > 1.0 then Alcotest.failf "stddev off: %f" sd

let test_metrics_empty_histogram () =
  let reg = Metrics.create_registry () in
  let h = Metrics.histogram reg "empty" in
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Metrics.hist_mean h));
  Alcotest.(check bool) "p50 nan" true (Float.is_nan (Metrics.hist_percentile h 50.0))

let test_metrics_reservoir_bounded () =
  let reg = Metrics.create_registry () in
  let h = Metrics.histogram reg "big" in
  for i = 1 to 100_000 do
    Metrics.observe h (float_of_int i)
  done;
  Alcotest.(check int) "exact count despite sampling" 100_000 (Metrics.hist_count h);
  let p50 = Metrics.hist_percentile h 50.0 in
  if p50 < 40_000.0 || p50 > 60_000.0 then Alcotest.failf "sampled p50 off: %f" p50

let test_metrics_percentile_accuracy () =
  let reg = Metrics.create_registry () in
  (* Below the reservoir capacity every sample is retained, so the
     percentiles are the exact linear-interpolation order statistics. *)
  let h = Metrics.histogram reg "exact" in
  for i = 1 to 1000 do
    Metrics.observe h (float_of_int i)
  done;
  Alcotest.(check (float 1e-9)) "exact p0" 1.0 (Metrics.hist_percentile h 0.0);
  Alcotest.(check (float 1e-9)) "exact p50" 500.5 (Metrics.hist_percentile h 50.0);
  Alcotest.(check (float 1e-9)) "exact p90" 900.1 (Metrics.hist_percentile h 90.0);
  Alcotest.(check (float 1e-9)) "exact p99" 990.01 (Metrics.hist_percentile h 99.0);
  Alcotest.(check (float 1e-9)) "exact p100" 1000.0 (Metrics.hist_percentile h 100.0);
  (* Past the capacity the estimate comes from a seeded reservoir sample;
     it must stay within a few percent of the true quantile (the RNG is
     deterministic, so this is a fixed value, not a flaky bound). *)
  let big = Metrics.histogram reg "sampled" in
  for i = 1 to 100_000 do
    Metrics.observe big (float_of_int i)
  done;
  List.iter
    (fun (p, expected) ->
      let v = Metrics.hist_percentile big p in
      let tolerance = 0.03 *. 100_000.0 in
      if Float.abs (v -. expected) > tolerance then
        Alcotest.failf "sampled p%.0f off: %f (expected %f +- %f)" p v expected
          tolerance)
    [ (10.0, 10_000.0); (50.0, 50_000.0); (90.0, 90_000.0); (99.0, 99_000.0) ]

(* ----------------------------- Vec -------------------------------- *)

let test_vec_basics () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.push v i
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get" 42 (Vec.get v 42);
  Alcotest.(check (option int)) "find from" (Some 50)
    (Vec.find_index_from v 10 (fun x -> x = 50));
  Alcotest.(check (option int)) "find missing" None
    (Vec.find_index_from v 60 (fun x -> x = 50));
  Alcotest.(check int) "fold" 4950 (Vec.fold_left ( + ) 0 v);
  Vec.clear v;
  Alcotest.(check int) "cleared" 0 (Vec.length v)

(* ----------------------------- Engine ----------------------------- *)

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~delay:2.0 (fun _ -> log := "b" :: !log));
  ignore (Engine.schedule e ~delay:1.0 (fun _ -> log := "a" :: !log));
  ignore (Engine.schedule e ~delay:3.0 (fun _ -> log := "c" :: !log));
  Alcotest.(check bool) "quiescent" true (Engine.run e = Engine.Quiescent);
  Alcotest.(check (list string)) "timestamp order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock at last event" 3.0 (Engine.now e)

let test_engine_fifo_same_time () =
  let e = Engine.create () in
  let log = ref [] in
  List.iter
    (fun tag -> ignore (Engine.schedule e ~delay:1.0 (fun _ -> log := tag :: !log)))
    [ "1"; "2"; "3" ];
  ignore (Engine.run e);
  Alcotest.(check (list string)) "FIFO among equal times" [ "1"; "2"; "3" ]
    (List.rev !log)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule e ~delay:1.0 (fun _ -> fired := true) in
  Engine.cancel h;
  ignore (Engine.run e);
  Alcotest.(check bool) "cancelled event did not fire" false !fired

let test_engine_time_limit () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~delay:10.0 (fun _ -> ()));
  (match Engine.run ~until:5.0 e with
  | Engine.Time_limit -> ()
  | r -> Alcotest.failf "expected time limit, got %a" Engine.pp_stop_reason r);
  Alcotest.(check (float 1e-9)) "clock advanced to horizon" 5.0 (Engine.now e);
  Alcotest.(check bool) "event still pending" true (Engine.pending_events e = 1);
  Alcotest.(check bool) "second run finishes" true (Engine.run e = Engine.Quiescent)

let test_engine_event_limit_and_stop () =
  let e = Engine.create () in
  let rec reschedule t = ignore (Engine.schedule t ~delay:1.0 reschedule) in
  reschedule e;
  (match Engine.run ~max_events:10 e with
  | Engine.Event_limit -> ()
  | r -> Alcotest.failf "expected event limit, got %a" Engine.pp_stop_reason r);
  let e2 = Engine.create () in
  ignore (Engine.schedule e2 ~delay:1.0 (fun t -> Engine.stop t));
  ignore (Engine.schedule e2 ~delay:2.0 (fun _ -> ()));
  match Engine.run e2 with
  | Engine.Stopped -> ()
  | r -> Alcotest.failf "expected stopped, got %a" Engine.pp_stop_reason r

(* The virtual-time sampler hook Telemetry drives: due times advance by
   one stride from [now] at each firing, so a clock jumping several
   strides yields one sample (no catch-up burst), and the schedule is a
   pure function of the event sequence. *)
let test_engine_sampler () =
  let run () =
    let e = Engine.create () in
    let samples = ref [] in
    Engine.set_sampler e ~stride:1.0 (fun t ->
        samples := Engine.now t :: !samples);
    (* Events at 0.1, then a jump past three strides, then small steps. *)
    List.iter
      (fun at -> ignore (Engine.schedule_at e ~at (fun _ -> ())))
      [ 0.1; 3.5; 3.6; 4.2; 10.0 ];
    ignore (Engine.run e);
    List.rev !samples
  in
  let s1 = run () in
  (* First event triggers the first sample; 3.5 covers the missed
     strides with a single firing and pushes the next due time to 4.5,
     so 3.6 and 4.2 are quiet; 10.0 crosses it once. *)
  Alcotest.(check (list (float 0.0)))
    "one sample per due crossing, no bursts" [ 0.1; 3.5; 10.0 ] s1;
  Alcotest.(check (list (float 0.0))) "deterministic" s1 (run ());
  (* Replacing and clearing. *)
  let e = Engine.create () in
  let a = ref 0 and b = ref 0 in
  Engine.set_sampler e ~stride:1.0 (fun _ -> incr a);
  Engine.set_sampler e ~stride:1.0 (fun _ -> incr b);
  ignore (Engine.schedule_at e ~at:1.0 (fun _ -> ()));
  ignore (Engine.run e);
  Alcotest.(check int) "replaced sampler never fires" 0 !a;
  Alcotest.(check int) "replacement fires" 1 !b;
  Engine.clear_sampler e;
  ignore (Engine.schedule_at e ~at:5.0 (fun _ -> ()));
  ignore (Engine.run e);
  Alcotest.(check int) "cleared sampler is silent" 1 !b;
  Alcotest.(check bool) "bad stride rejected" true
    (try
       Engine.set_sampler e ~stride:0.0 (fun _ -> ());
       false
     with Invalid_argument _ -> true)

let test_engine_rejects_past () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~delay:1.0 (fun _ -> ()));
  ignore (Engine.run e);
  Alcotest.(check bool) "negative delay raises" true
    (try
       ignore (Engine.schedule e ~delay:(-1.0) (fun _ -> ()));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "past absolute time raises" true
    (try
       ignore (Engine.schedule_at e ~at:0.5 (fun _ -> ()));
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "sim"
    [
      ( "rng",
        [
          test "deterministic from seed" test_rng_deterministic;
          test "seed sensitivity" test_rng_seed_sensitivity;
          test "split independence" test_rng_split_independent;
          test "copy" test_rng_copy;
          test "int bounds" test_rng_int_bounds;
          test "float bounds" test_rng_float_bounds;
          test "bernoulli extremes" test_rng_bernoulli_extremes;
          test "exponential mean" test_rng_mean_sanity;
          test "normal moments" test_rng_normal_moments;
          test "shuffle permutes" test_rng_shuffle_permutes;
          QCheck_alcotest.to_alcotest qcheck_rng_int_in_range;
          QCheck_alcotest.to_alcotest qcheck_rng_uniform_in_range;
          test "matches Int64 reference bit-for-bit"
            test_rng_matches_int64_reference;
          test "split_n matches repeated split against the reference"
            test_rng_split_n_reference;
        ] );
      ( "heap",
        [
          test "orders by priority" test_heap_orders;
          test "FIFO among ties" test_heap_fifo_ties;
          test "peek and clear" test_heap_peek_and_clear;
          QCheck_alcotest.to_alcotest qcheck_heap_sorts;
        ] );
      ( "equeue",
        [
          test "orders by priority" test_equeue_orders;
          test "FIFO among ties" test_equeue_fifo_ties;
          test "peek, pop, clear" test_equeue_peek_pop_clear;
          QCheck_alcotest.to_alcotest qcheck_equeue_matches_heap;
        ] );
      ( "metrics",
        [
          test "counters" test_metrics_counters;
          test "histogram stats" test_metrics_histogram;
          test "empty histogram" test_metrics_empty_histogram;
          test "reservoir bounded" test_metrics_reservoir_bounded;
          test "percentile accuracy" test_metrics_percentile_accuracy;
        ] );
      ("vec", [ test "basics" test_vec_basics ]);
      ( "engine",
        [
          test "timestamp ordering" test_engine_ordering;
          test "FIFO at equal times" test_engine_fifo_same_time;
          test "cancellation" test_engine_cancel;
          test "time limit" test_engine_time_limit;
          test "event limit and stop" test_engine_event_limit_and_stop;
          test "rejects scheduling in the past" test_engine_rejects_past;
          test "virtual-time sampler" test_engine_sampler;
          test "pool reuse across a long run" test_engine_pool_reuse;
          test "cancelled events recycled" test_engine_pool_cancelled_recycled;
          test "stale cancel is harmless" test_engine_stale_cancel_harmless;
          QCheck_alcotest.to_alcotest qcheck_engine_pool_bounded;
        ] );
    ]
