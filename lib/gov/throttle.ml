type cell = {
  mutable level : float;
  mutable at : float;  (* virtual time [level] was last current *)
  mutable gated : bool;
  mutable listed : bool;  (* in [held] *)
}

type t = {
  high : float;
  low : float;
  tau : float;
  cells : (int, cell) Hashtbl.t;
  mutable held : cell list;
      (* every gated cell, plus any released since the last
         [throttled_count] *)
}

let create ?(high = 1.0) ?(low = 0.25) ?(tau = 20e-3) () =
  if not (0.0 < low && low < high) then
    invalid_arg "Throttle.create: need 0 < low < high";
  if not (tau > 0.0) then invalid_arg "Throttle.create: need tau > 0";
  { high; low; tau; cells = Hashtbl.create 64; held = [] }

let high t = t.high
let low t = t.low
let tau t = t.tau
let min_hold t = t.tau *. log (t.high /. t.low)

(* [Hashtbl.find] over [find_opt]: called per actuator decision. *)
let cell t key =
  try Hashtbl.find t.cells key
  with Not_found ->
    let c = { level = 0.0; at = 0.0; gated = false; listed = false } in
    Hashtbl.add t.cells key c;
    c

(* Lazy decay: a cell's level is only ever brought up to date when it is
   observed, as a pure function of the virtual clock — so the machine's
   answers depend on (calls, now), never on how often it was polled. *)
let refresh t c ~now =
  if now > c.at then begin
    c.level <- c.level *. exp (-.(now -. c.at) /. t.tau);
    c.at <- now
  end;
  if c.gated && c.level <= t.low then c.gated <- false

let bump t ~now ~key amount =
  if Float.is_nan amount then invalid_arg "Throttle.bump: NaN pressure";
  if amount < 0.0 then invalid_arg "Throttle.bump: negative pressure";
  let c = cell t key in
  refresh t c ~now;
  c.level <- c.level +. amount;
  if c.level >= t.high then begin
    c.gated <- true;
    if not c.listed then begin
      c.listed <- true;
      t.held <- c :: t.held
    end
  end

let level t ~now ~key =
  match Hashtbl.find_opt t.cells key with
  | None -> 0.0
  | Some c ->
    refresh t c ~now;
    c.level

let throttled t ~now ~key =
  match Hashtbl.find_opt t.cells key with
  | None -> false
  | Some c ->
    refresh t c ~now;
    c.gated

(* Every gated cell is listed, so refreshing the listed ones alone is
   exact, and costs O(gated) however many cells were ever tracked. *)
let throttled_count t ~now =
  t.held <-
    List.filter
      (fun c ->
        refresh t c ~now;
        c.listed <- c.gated;
        c.gated)
      t.held;
  List.length t.held

let tracked t = Hashtbl.length t.cells
