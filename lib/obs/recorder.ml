type tap = time:float -> proc:Hope_types.Proc_id.t -> Event.payload -> unit

type t = {
  mutable arr : Event.t array;
  mutable size : int;
  mutable on : bool;
  mutable seq : int;
  mutable tap : tap option;
  mutable tap_dep : bool;
  (* Cached guard results so [enabled]/[enabled_dep] stay one unboxed
     load on the emission hot path. *)
  mutable active : bool;
  mutable active_dep : bool;
}

let refresh t =
  t.active <- t.on || t.tap <> None;
  t.active_dep <- t.on || (t.tap <> None && t.tap_dep)

let create () =
  {
    arr = [||];
    size = 0;
    on = false;
    seq = 0;
    tap = None;
    tap_dep = false;
    active = false;
    active_dep = false;
  }

let enable t =
  t.on <- true;
  refresh t

let disable t =
  t.on <- false;
  refresh t

let enabled t = t.active
let enabled_dep t = t.active_dep
let storing t = t.on

let set_tap t ?(dep = false) f =
  t.tap <- Some f;
  t.tap_dep <- dep;
  refresh t

let grow t =
  let cap = Array.length t.arr in
  let dummy =
    {
      Event.seq = 0;
      time = 0.0;
      proc = Hope_types.Proc_id.of_int 0;
      payload = Event.Sim_stop { reason = "" };
    }
  in
  let arr = Array.make (max 256 (2 * cap)) dummy in
  Array.blit t.arr 0 arr 0 t.size;
  t.arr <- arr

let emit t ~time ~proc payload =
  if t.active then begin
    (match t.tap with Some f -> f ~time ~proc payload | None -> ());
    if t.on then begin
      if t.size = Array.length t.arr then grow t;
      t.arr.(t.size) <- { Event.seq = t.seq; time; proc; payload };
      t.size <- t.size + 1;
      t.seq <- t.seq + 1
    end
  end

let size t = t.size

let events t = Array.to_list (Array.sub t.arr 0 t.size)

let iter f t =
  for i = 0 to t.size - 1 do
    f t.arr.(i)
  done

let clear t =
  t.size <- 0;
  t.seq <- 0
