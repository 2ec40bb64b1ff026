type t =
  | Unit
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Pid of Proc_id.t
  | Aid_v of Aid.t
  | Pair of t * t
  | List of t list

let rec equal a b =
  match (a, b) with
  | Unit, Unit -> true
  | Bool x, Bool y -> Bool.equal x y
  | Int x, Int y -> Int.equal x y
  | Float x, Float y -> Float.equal x y
  | String x, String y -> String.equal x y
  | Pid x, Pid y -> Proc_id.equal x y
  | Aid_v x, Aid_v y -> Aid.equal x y
  | Pair (x1, x2), Pair (y1, y2) -> equal x1 y1 && equal x2 y2
  | List xs, List ys -> List.length xs = List.length ys && List.for_all2 equal xs ys
  | (Unit | Bool _ | Int _ | Float _ | String _ | Pid _ | Aid_v _ | Pair _ | List _), _
    -> false

let rec pp ppf = function
  | Unit -> Format.pp_print_string ppf "()"
  | Bool b -> Format.pp_print_bool ppf b
  | Int i -> Format.pp_print_int ppf i
  | Float f -> Format.fprintf ppf "%g" f
  | String s -> Format.fprintf ppf "%S" s
  | Pid p -> Proc_id.pp ppf p
  | Aid_v a -> Aid.pp ppf a
  | Pair (a, b) -> Format.fprintf ppf "(%a, %a)" pp a pp b
  | List vs ->
    Format.fprintf ppf "[%a]"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ") pp)
      vs

let to_string t = Format.asprintf "%a" pp t

let shape_error want got =
  invalid_arg (Printf.sprintf "Value: expected %s, got %s" want (to_string got))

let to_bool = function Bool b -> b | v -> shape_error "Bool" v
let to_int = function Int i -> i | v -> shape_error "Int" v
let to_pid = function Pid p -> p | v -> shape_error "Pid" v
let to_aid = function Aid_v a -> a | v -> shape_error "Aid" v
let to_pair = function Pair (a, b) -> (a, b) | v -> shape_error "Pair" v
let to_list = function List vs -> vs | v -> shape_error "List" v
let to_string_payload = function String s -> s | v -> shape_error "String" v

let triple a b c = Pair (a, Pair (b, c))

let to_triple = function
  | Pair (a, Pair (b, c)) -> (a, b, c)
  | v -> shape_error "Pair(_,Pair(_,_))" v

let rec size_bytes = function
  | Unit -> 1
  | Bool _ -> 1
  | Int _ -> 8
  | Float _ -> 8
  | String s -> 4 + String.length s
  | Pid _ -> 4
  | Aid_v _ -> 4
  | Pair (a, b) -> size_bytes a + size_bytes b
  | List vs -> List.fold_left (fun acc v -> acc + size_bytes v) 4 vs
