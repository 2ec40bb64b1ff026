(* Tests for the network layer: latency models and message delivery. *)

module Engine = Hope_sim.Engine
module Rng = Hope_sim.Rng
module Latency = Hope_net.Latency
module Network = Hope_net.Network

let test name f = Alcotest.test_case name `Quick f

(* ----------------------------- Latency ---------------------------- *)

let all_models =
  [
    ("constant", Latency.Constant 1e-3);
    ("uniform", Latency.Uniform { lo = 1e-4; hi = 5e-4 });
    ("lognormal", Latency.Lognormal { median = 1e-3; sigma = 0.5 });
    ("shifted-exp", Latency.Shifted_exponential { base = 1e-4; mean_extra = 5e-5 });
    ("local", Latency.local);
    ("lan", Latency.lan);
    ("man", Latency.man);
    ("wan", Latency.wan);
  ]

let test_latency_positive () =
  let rng = Rng.create ~seed:1 in
  List.iter
    (fun (name, m) ->
      for _ = 1 to 1000 do
        let d = Latency.sample m rng in
        if d <= 0.0 then Alcotest.failf "%s produced non-positive delay %g" name d
      done)
    all_models

let test_latency_sample_mean_matches () =
  let rng = Rng.create ~seed:2 in
  List.iter
    (fun (name, m) ->
      let n = 50_000 in
      let sum = ref 0.0 in
      for _ = 1 to n do
        sum := !sum +. Latency.sample m rng
      done;
      let sample_mean = !sum /. float_of_int n in
      let expected = Latency.mean m in
      if Float.abs (sample_mean -. expected) > 0.1 *. expected then
        Alcotest.failf "%s: sample mean %g vs analytic %g" name sample_mean expected)
    all_models

let test_latency_uniform_range () =
  let rng = Rng.create ~seed:3 in
  let m = Latency.Uniform { lo = 0.2; hi = 0.3 } in
  for _ = 1 to 1000 do
    let d = Latency.sample m rng in
    if d < 0.2 || d >= 0.3 then Alcotest.failf "uniform out of range: %g" d
  done

let test_latency_scale () =
  Alcotest.(check (float 1e-12)) "scaled mean" 0.03 (Latency.mean (Latency.scale Latency.wan 2.0));
  match Latency.scale (Latency.Uniform { lo = 1.0; hi = 2.0 }) 3.0 with
  | Latency.Uniform { lo; hi } ->
    Alcotest.(check (float 1e-12)) "lo" 3.0 lo;
    Alcotest.(check (float 1e-12)) "hi" 6.0 hi
  | _ -> Alcotest.fail "scale changed the model shape"

let test_latency_wan_matches_paper () =
  (* §3.1: 30 ms for a transcontinental round trip, i.e. 15 ms one way. *)
  Alcotest.(check (float 1e-9)) "wan one-way" 15e-3 (Latency.mean Latency.wan)

(* ----------------------------- Network ---------------------------- *)

let make_net ?default_latency ?fifo ~dummy () =
  let engine = Engine.create ~seed:9 () in
  (engine, Network.create ~engine ?default_latency ?fifo ~dummy ())

let test_network_delivers () =
  let engine, net = make_net ~dummy:"" () in
  let got = ref [] in
  Network.set_dispatcher net (fun ~dst ~src v -> got := (dst, src, v) :: !got);
  Network.send net ~src:0 ~dst:1 "hello";
  ignore (Engine.run engine);
  Alcotest.(check (list (triple int int string))) "delivered" [ (1, 0, "hello") ]
    !got;
  Alcotest.(check int) "sent" 1 (Network.messages_sent net);
  Alcotest.(check int) "delivered count" 1 (Network.messages_delivered net);
  Alcotest.(check int) "none in flight" 0 (Network.in_flight net)

(* A payload with no dispatcher to take it is a wiring error: the
   delivery raises out of [Engine.run], naming its address. *)
let test_network_no_dispatcher_raises () =
  let engine, net = make_net ~dummy:"" () in
  Network.send net ~src:0 ~dst:7 "early";
  Alcotest.check_raises "delivery before set_dispatcher"
    (Invalid_argument "Network: delivery to address 7 before set_dispatcher")
    (fun () -> ignore (Engine.run engine : Engine.stop_reason))

let test_network_fifo_per_pair () =
  let engine, net =
    make_net ~default_latency:(Latency.Lognormal { median = 1e-3; sigma = 1.0 })
      ~dummy:0 ()
  in
  Network.place net 0 ~node:0;
  Network.place net 1 ~node:1;
  let got = ref [] in
  Network.set_dispatcher net (fun ~dst:_ ~src:_ v -> got := v :: !got);
  for i = 1 to 50 do
    Network.send net ~src:0 ~dst:1 i
  done;
  ignore (Engine.run engine);
  Alcotest.(check (list int)) "FIFO despite jitter" (List.init 50 (fun i -> i + 1))
    (List.rev !got)

let test_network_non_fifo_can_reorder () =
  let engine, net =
    make_net ~fifo:false
      ~default_latency:(Latency.Lognormal { median = 1e-3; sigma = 1.5 })
      ~dummy:0 ()
  in
  Network.place net 0 ~node:0;
  Network.place net 1 ~node:1;
  let got = ref [] in
  Network.set_dispatcher net (fun ~dst:_ ~src:_ v -> got := v :: !got);
  for i = 1 to 200 do
    Network.send net ~src:0 ~dst:1 i
  done;
  ignore (Engine.run engine);
  let arrived = List.rev !got in
  Alcotest.(check int) "all arrived" 200 (List.length arrived);
  Alcotest.(check bool) "some reordering happened" true
    (arrived <> List.init 200 (fun i -> i + 1))

let test_network_node_latency_selection () =
  let _, net = make_net ~default_latency:Latency.wan ~dummy:() () in
  Network.place net 1 ~node:0;
  Network.place net 2 ~node:0;
  Network.place net 3 ~node:5;
  Alcotest.(check (float 1e-9)) "same node is local" (Latency.mean Latency.local)
    (Latency.mean (Network.latency_between net ~src:1 ~dst:2));
  Alcotest.(check (float 1e-9)) "cross node uses default" (Latency.mean Latency.wan)
    (Latency.mean (Network.latency_between net ~src:1 ~dst:3));
  Network.set_link net ~src:0 ~dst:5 Latency.lan;
  Alcotest.(check (float 1e-9)) "explicit link overrides"
    (Latency.mean Latency.lan)
    (Latency.mean (Network.latency_between net ~src:1 ~dst:3));
  (* The link override is directional. *)
  Alcotest.(check (float 1e-9)) "reverse direction unaffected"
    (Latency.mean Latency.wan)
    (Latency.mean (Network.latency_between net ~src:3 ~dst:1))

let test_network_delivery_time () =
  let engine, net = make_net ~default_latency:(Latency.Constant 5e-3) ~dummy:() () in
  Network.place net 1 ~node:1;
  let at = ref 0.0 in
  Network.set_dispatcher net (fun ~dst:_ ~src:_ () -> at := Engine.now engine);
  Network.send net ~src:0 ~dst:1 ();
  ignore (Engine.run engine);
  Alcotest.(check (float 1e-9)) "constant latency applied" 5e-3 !at

let qcheck_fifo_property =
  QCheck.Test.make ~name:"network: per-pair FIFO for any seed and count" ~count:50
    QCheck.(pair small_int (int_range 1 100))
    (fun (seed, n) ->
      let engine = Engine.create ~seed () in
      let net =
        Network.create ~engine
          ~default_latency:(Latency.Lognormal { median = 1e-3; sigma = 2.0 })
          ~dummy:0 ()
      in
      Network.place net 0 ~node:0;
      Network.place net 1 ~node:1;
      let got = ref [] in
      Network.set_dispatcher net (fun ~dst:_ ~src:_ v -> got := v :: !got);
      for i = 1 to n do
        Network.send net ~src:0 ~dst:1 i
      done;
      ignore (Engine.run engine);
      List.rev !got = List.init n (fun i -> i + 1))

let () =
  Alcotest.run "net"
    [
      ( "latency",
        [
          test "always positive" test_latency_positive;
          test "sample mean matches analytic" test_latency_sample_mean_matches;
          test "uniform range" test_latency_uniform_range;
          test "scale" test_latency_scale;
          test "wan matches the paper's 30ms RTT" test_latency_wan_matches_paper;
        ] );
      ( "network",
        [
          test "delivers" test_network_delivers;
          test "FIFO per pair" test_network_fifo_per_pair;
          test "non-FIFO can reorder" test_network_non_fifo_can_reorder;
          test "latency selection by node/link" test_network_node_latency_selection;
          test "delivery time" test_network_delivery_time;
          QCheck_alcotest.to_alcotest qcheck_fifo_property;
        ] );
      ( "dispatch",
        [
          test "a delivery before set_dispatcher raises"
            test_network_no_dispatcher_raises;
        ] );
    ]
