(* Unit and property tests for the simulation kernel: RNG, heap, metrics,
   vec, the event engine, and the telemetry sampler it drives. *)

module Rng = Hope_sim.Rng
module Heap = Hope_sim.Heap
module Equeue = Hope_sim.Equeue
module Metrics = Hope_sim.Metrics
module Vec = Hope_sim.Vec
module Engine = Hope_sim.Engine
module Telemetry = Hope_sim.Telemetry
module Timeseries = Hope_obs.Timeseries
module Network = Hope_net.Network

let test name f = Alcotest.test_case name `Quick f

let nop_call (_ : Engine.t) (_ : int) (_ : int) = ()

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
  let rec reschedule t _ _ =
    incr count;
    if !count < 10_000 then Engine.schedule_call t ~delay:1.0 reschedule 0 0
  in
  Engine.schedule_call e ~delay:1.0 reschedule 0 0;
  ignore (Engine.run e);
  Alcotest.(check int) "all events ran" 10_000 !count;
  Alcotest.(check bool)
    (Printf.sprintf "pool stayed small (%d records)" (Engine.pool_allocated e))
    true
    (Engine.pool_allocated e <= 4);
  Alcotest.(check int) "every record back on the free list"
    (Engine.pool_allocated e) (Engine.pool_free e)

(* A fired event's record and a dispatched delivery batch go back to
   their pools; neither may keep what it carried alive. [release]
   clears the record's dispatcher and the network writes its dummy over
   the batch slot, so after the run both boxed values below are garbage
   while the engine and the network, pools included, are still live. *)
let[@inline never] schedule_capture e collected =
  let captured = ref 0 in
  Gc.finalise (fun _ -> incr collected) captured;
  Engine.schedule_call e ~delay:1.0 (fun _ _ _ -> incr captured) 0 0

let[@inline never] send_boxed net collected =
  let payload = ref 0 in
  Gc.finalise (fun _ -> incr collected) payload;
  Network.send net ~src:0 ~dst:1 payload

let test_engine_fired_records_hold_nothing () =
  let e = Engine.create () in
  let net = Network.create ~engine:e ~dummy:(ref 0) () in
  Network.set_dispatcher net (fun ~dst:_ ~src:_ payload -> incr payload);
  let captured = ref 0 and delivered = ref 0 in
  schedule_capture e captured;
  send_boxed net delivered;
  ignore (Engine.run e);
  Alcotest.(check int) "both events fired" 2 (Engine.events_processed e);
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check int) "closure capture collected" 1 !captured;
  Alcotest.(check int) "delivered payload collected" 1 !delivered;
  (* both pools are read after the collection, so they were live in it *)
  Alcotest.(check int) "record back on the free list" (Engine.pool_allocated e)
    (Engine.pool_free e);
  Alcotest.(check int) "payload delivered" 1 (Network.messages_delivered net)

let qcheck_engine_pool_bounded =
  QCheck.Test.make ~name:"engine: pool bounded by peak pending" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (QCheck.int_range 1 20))
    (fun batches ->
      let e = Engine.create () in
      let peak = List.fold_left max 0 batches in
      List.iter
        (fun n ->
          for _ = 1 to n do
            Engine.schedule_call e ~delay:1.0 nop_call 0 0
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
  (* one-off closures as dispatchers, their ints unused *)
  Engine.schedule_call e ~delay:2.0 (fun _ _ _ -> log := "b" :: !log) 0 0;
  Engine.schedule_call e ~delay:1.0 (fun _ _ _ -> log := "a" :: !log) 0 0;
  Engine.schedule_call e ~delay:3.0 (fun _ _ _ -> log := "c" :: !log) 0 0;
  Alcotest.(check bool) "quiescent" true (Engine.run e = Engine.Quiescent);
  Alcotest.(check (list string)) "timestamp order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock at last event" 3.0 (Engine.now e)

let test_engine_fifo_same_time () =
  let e = Engine.create () in
  let log = ref [] in
  (* one shared dispatcher, the tag in its first int *)
  let log_tag _ tag _ = log := string_of_int tag :: !log in
  List.iter (fun tag -> Engine.schedule_call e ~delay:1.0 log_tag tag 0) [ 1; 2; 3 ];
  ignore (Engine.run e);
  Alcotest.(check (list string)) "FIFO among equal times" [ "1"; "2"; "3" ]
    (List.rev !log)

let test_engine_time_limit () =
  let e = Engine.create () in
  Engine.schedule_call e ~delay:10.0 nop_call 0 0;
  (match Engine.run ~until:5.0 e with
  | Engine.Time_limit -> ()
  | r -> Alcotest.failf "expected time limit, got %a" Engine.pp_stop_reason r);
  Alcotest.(check (float 1e-9)) "clock advanced to horizon" 5.0 (Engine.now e);
  Alcotest.(check bool) "event still pending" true (Engine.pending_events e = 1);
  Alcotest.(check bool) "second run finishes" true (Engine.run e = Engine.Quiescent)

let test_engine_event_limit_and_stop () =
  let e = Engine.create () in
  let rec reschedule t _ _ = Engine.schedule_call t ~delay:1.0 reschedule 0 0 in
  reschedule e 0 0;
  (match Engine.run ~max_events:10 e with
  | Engine.Event_limit -> ()
  | r -> Alcotest.failf "expected event limit, got %a" Engine.pp_stop_reason r);
  let e2 = Engine.create () in
  Engine.schedule_call e2 ~delay:1.0 (fun t _ _ -> Engine.stop t) 0 0;
  Engine.schedule_call e2 ~delay:2.0 nop_call 0 0;
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
      (fun at -> Engine.schedule_call_at e ~at nop_call 0 0)
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
  Engine.schedule_call_at e ~at:1.0 nop_call 0 0;
  ignore (Engine.run e);
  Alcotest.(check int) "replaced sampler never fires" 0 !a;
  Alcotest.(check int) "replacement fires" 1 !b;
  Engine.clear_sampler e;
  Engine.schedule_call_at e ~at:5.0 nop_call 0 0;
  ignore (Engine.run e);
  Alcotest.(check int) "cleared sampler is silent" 1 !b;
  Alcotest.(check bool) "bad stride rejected" true
    (try
       Engine.set_sampler e ~stride:0.0 (fun _ -> ());
       false
     with Invalid_argument _ -> true)

(* Telemetry binds each registry counter and gauge to its series and walks
   the registry again only when an instrument appears. An instrument
   created after N strides gets one point per later stride, read live;
   the bindings made before keep one point per stride, never two. *)
let test_telemetry_late_instrument () =
  let e = Engine.create () in
  let tele = Telemetry.create ~stride:1.0 ~recorder:(Engine.obs e) () in
  Telemetry.install tele e;
  let reg = Engine.metrics e in
  let early = Metrics.counter reg "t.early" in
  let late = ref None in
  let ts = Telemetry.series tele in
  let series_at = ref [] in
  (* one event per stride, each followed by a sample; the late counter
     and gauge appear in the fifth *)
  for k = 0 to 9 do
    Engine.schedule_call_at e ~at:(float_of_int k +. 0.5)
      (fun _ _ _ ->
        series_at := List.length (Timeseries.all ts) :: !series_at;
        Metrics.incr early;
        if k = 4 then
          late := Some (Metrics.counter reg "t.late", Metrics.gauge reg "t.late_gauge");
        Option.iter
          (fun (c, g) ->
            Metrics.add c 10;
            Metrics.set_gauge g (float_of_int k))
          !late)
      0 0
  done;
  ignore (Engine.run e);
  let points name =
    match Timeseries.find ts name with
    | Some s -> List.map snd (Timeseries.to_list s)
    | None -> Alcotest.failf "no series %s" name
  in
  Alcotest.(check int) "ten strides" 10 (Timeseries.samples ts);
  Alcotest.(check (list (float 0.0))) "early counter: one point per stride"
    (List.init 10 (fun k -> float_of_int (k + 1)))
    (points "t_early");
  Alcotest.(check (list (float 0.0))) "late counter: one point per later stride"
    [ 10.; 20.; 30.; 40.; 50.; 60. ] (points "t_late");
  Alcotest.(check (list (float 0.0))) "late gauge: one point per later stride"
    [ 4.; 5.; 6.; 7.; 8.; 9. ] (points "t_late_gauge");
  (* series at the start of each stride: the early counter's appears at
     the first sample, the late pair's at the fifth, and no other *)
  let base = List.hd (List.rev !series_at) in
  Alcotest.(check (list int)) "series set grows only with the registry"
    ((base :: List.init 4 (fun _ -> base + 1)) @ List.init 5 (fun _ -> base + 3))
    (List.rev !series_at)

let test_engine_rejects_past () =
  let e = Engine.create () in
  Engine.schedule_call e ~delay:1.0 nop_call 0 0;
  ignore (Engine.run e);
  Alcotest.(check bool) "negative delay raises" true
    (try
       Engine.schedule_call e ~delay:(-1.0) nop_call 0 0;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "past absolute time raises" true
    (try
       Engine.schedule_call_at e ~at:0.5 nop_call 0 0;
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
          test "time limit" test_engine_time_limit;
          test "event limit and stop" test_engine_event_limit_and_stop;
          test "rejects scheduling in the past" test_engine_rejects_past;
          test "virtual-time sampler" test_engine_sampler;
          test "pool reuse across a long run" test_engine_pool_reuse;
          test "fired records hold nothing" test_engine_fired_records_hold_nothing;
          QCheck_alcotest.to_alcotest qcheck_engine_pool_bounded;
          test "telemetry binds late instruments once, sampled live"
            test_telemetry_late_instrument;
        ] );
    ]
