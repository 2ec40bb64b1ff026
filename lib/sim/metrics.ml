type counter = { mutable n : int }

type gauge = { mutable v : float }

(* Streaming histogram: exact moments plus a bounded reservoir for
   percentile estimates. The reservoir keeps the first [reservoir_cap]
   observations and then samples uniformly (Vitter's algorithm R) using a
   deterministic stream derived from the observation count, keeping runs
   reproducible without threading an Rng through every observe call. *)
(* [stats] is a flat float array [| sum; sum_sq; min; max |]: unboxed
   stores, where mutable float fields of this mixed record would allocate
   a box per {!observe}. *)
type histogram = {
  mutable count : int;
  stats : float array;
  mutable reservoir : float array;
  mutable reservoir_n : int;
  rng : Rng.t;
}

let reservoir_cap = 4096

type registry = {
  counters_tbl : (string, counter) Hashtbl.t;
  gauges_tbl : (string, gauge) Hashtbl.t;
  hists_tbl : (string, histogram) Hashtbl.t;
}

let create_registry () =
  {
    counters_tbl = Hashtbl.create 32;
    gauges_tbl = Hashtbl.create 8;
    hists_tbl = Hashtbl.create 8;
  }

let counter reg name =
  match Hashtbl.find_opt reg.counters_tbl name with
  | Some c -> c
  | None ->
    let c = { n = 0 } in
    Hashtbl.add reg.counters_tbl name c;
    c

let incr c = c.n <- c.n + 1
let add c k = c.n <- c.n + k
let count c = c.n

let gauge reg name =
  match Hashtbl.find_opt reg.gauges_tbl name with
  | Some g -> g
  | None ->
    let g = { v = 0.0 } in
    Hashtbl.add reg.gauges_tbl name g;
    g

let set_gauge g v = g.v <- v
let gauge_value g = g.v

let histogram reg name =
  match Hashtbl.find_opt reg.hists_tbl name with
  | Some h -> h
  | None ->
    let h =
      {
        count = 0;
        stats = [| 0.0; 0.0; nan; nan |];
        reservoir = [||];
        reservoir_n = 0;
        rng = Rng.create ~seed:(Hashtbl.hash name);
      }
    in
    Hashtbl.add reg.hists_tbl name h;
    h

let observe h x =
  h.count <- h.count + 1;
  h.stats.(0) <- h.stats.(0) +. x;
  h.stats.(1) <- h.stats.(1) +. (x *. x);
  if h.count = 1 then begin
    h.stats.(2) <- x;
    h.stats.(3) <- x
  end
  else begin
    if x < h.stats.(2) then h.stats.(2) <- x;
    if x > h.stats.(3) then h.stats.(3) <- x
  end;
  if Array.length h.reservoir = 0 then h.reservoir <- Array.make reservoir_cap 0.0;
  if h.reservoir_n < reservoir_cap then begin
    h.reservoir.(h.reservoir_n) <- x;
    h.reservoir_n <- h.reservoir_n + 1
  end
  else begin
    let j = Rng.int h.rng h.count in
    if j < reservoir_cap then h.reservoir.(j) <- x
  end

(* A copy of [observe] rather than [observe h (float_of_int n)]: the
   conversion happens inside the function body, so the float lives only in
   registers and unboxed array stores — calling [observe] would box it at
   the call boundary (non-flambda), and this runs once per interval on the
   HOPE hot path. *)
let observe_int h n =
  let x = float_of_int n in
  h.count <- h.count + 1;
  h.stats.(0) <- h.stats.(0) +. x;
  h.stats.(1) <- h.stats.(1) +. (x *. x);
  if h.count = 1 then begin
    h.stats.(2) <- x;
    h.stats.(3) <- x
  end
  else begin
    if x < h.stats.(2) then h.stats.(2) <- x;
    if x > h.stats.(3) then h.stats.(3) <- x
  end;
  if Array.length h.reservoir = 0 then h.reservoir <- Array.make reservoir_cap 0.0;
  if h.reservoir_n < reservoir_cap then begin
    h.reservoir.(h.reservoir_n) <- x;
    h.reservoir_n <- h.reservoir_n + 1
  end
  else begin
    let j = Rng.int h.rng h.count in
    if j < reservoir_cap then h.reservoir.(j) <- x
  end

let hist_count h = h.count
let hist_sum h = h.stats.(0)
let hist_min h = h.stats.(2)
let hist_max h = h.stats.(3)
let hist_mean h = if h.count = 0 then nan else h.stats.(0) /. float_of_int h.count

let hist_stddev h =
  if h.count < 2 then nan
  else
    let n = float_of_int h.count in
    let mean = h.stats.(0) /. n in
    let var = (h.stats.(1) -. (n *. mean *. mean)) /. (n -. 1.0) in
    sqrt (max 0.0 var)

let hist_percentile h p =
  if h.count = 0 then nan
  else begin
    let a = Array.sub h.reservoir 0 h.reservoir_n in
    Array.sort compare a;
    let p = Float.max 0.0 (Float.min 100.0 p) in
    let rank = p /. 100.0 *. float_of_int (h.reservoir_n - 1) in
    let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
    if lo = hi then a.(lo)
    else
      let w = rank -. float_of_int lo in
      ((1.0 -. w) *. a.(lo)) +. (w *. a.(hi))
  end

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters reg = sorted_bindings reg.counters_tbl |> List.map (fun (k, c) -> (k, c.n))
let gauges reg = sorted_bindings reg.gauges_tbl |> List.map (fun (k, g) -> (k, g.v))
let histograms reg = sorted_bindings reg.hists_tbl

(* Unsorted, allocation-free variants of [counters]/[gauges] for the
   per-sample telemetry hot path, where rebuilding a sorted assoc list a
   thousand times per run is pure garbage. *)
let iter_counters reg f = Hashtbl.iter (fun k c -> f k c.n) reg.counters_tbl
let iter_gauges reg f = Hashtbl.iter (fun k g -> f k g.v) reg.gauges_tbl

let find_counter reg name =
  match Hashtbl.find_opt reg.counters_tbl name with Some c -> c.n | None -> 0
