open Hope_types

type filter =
  | Any
  | From of Proc_id.t
  | Where of (Envelope.t -> bool)

type _ op =
  | Send : Proc_id.t * Value.t -> unit op
  | Recv : filter -> Envelope.t op
  | Recv_opt : filter -> Envelope.t option op
  | Aid_init : Aid.t op
  | Guess : Aid.t -> bool op
  | Affirm : Aid.t -> unit op
  | Deny : Aid.t -> unit op
  | Free_of : Aid.t -> unit op
  | Release : Aid.t -> unit op
  | Spawn : string * unit t -> Proc_id.t op
  | Compute : float -> unit op
  | Now : float op
  | Self : Proc_id.t op
  | Random_float : float -> float op
  | Random_bernoulli : float -> bool op
  | Random_int : int -> int op
  | Observe : string * float -> unit op
  | Incr_counter : string -> unit op
  | Lift : (unit -> 'b) -> 'b op

and 'a t = Return : 'a -> 'a t | Bind : 'b op * ('b -> 'a t) -> 'a t

let return x = Return x

let rec bind : type a b. a t -> (a -> b t) -> b t =
 fun m f -> match m with Return x -> f x | Bind (op, k) -> Bind (op, fun x -> bind (k x) f)

let map f m = bind m (fun x -> return (f x))

let perform op = Bind (op, return)

module Syntax = struct
  let ( let* ) = bind
  let ( let+ ) m f = map f m
  let ( >>= ) = bind
end

open Syntax

let send dst v = perform (Send (dst, v))
let recv () = perform (Recv Any)
let recv_from src = perform (Recv (From src))
let recv_where p = perform (Recv (Where p))
let recv_opt () = perform (Recv_opt Any)
let recv_opt_where p = perform (Recv_opt (Where p))

let recv_value () =
  let+ env = recv () in
  Envelope.value env

let recv_value_from src =
  let+ env = recv_from src in
  Envelope.value env

let aid_init () = perform Aid_init
let guess x = perform (Guess x)

let guess_new () =
  let* x = perform Aid_init in
  let* ok = perform (Guess x) in
  return (ok, x)
let affirm x = perform (Affirm x)
let deny x = perform (Deny x)
let free_of x = perform (Free_of x)
let release x = perform (Release x)

let spawn name body = perform (Spawn (name, body))
let compute d = perform (Compute d)
let now () = perform Now
let self () = perform Self

let random_float bound = perform (Random_float bound)
let random_bernoulli p = perform (Random_bernoulli p)
let random_int bound = perform (Random_int bound)

let lift f = perform (Lift f)
let observe name x = perform (Observe (name, x))
let incr_counter name = perform (Incr_counter name)

let rec iter_list f = function
  | [] -> return ()
  | x :: rest ->
    let* () = f x in
    iter_list f rest

let rec for_ lo hi f =
  if lo > hi then return ()
  else
    let* () = f lo in
    for_ (lo + 1) hi f

let when_ cond body = if cond then body else return ()

let rec repeat n body =
  if n <= 0 then return ()
  else
    let* () = body in
    repeat (n - 1) body

let rec fold lo hi acc f =
  if lo > hi then return acc
  else
    let* acc = f acc lo in
    fold (lo + 1) hi acc f
