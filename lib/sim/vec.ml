type 'a t = { mutable data : 'a array; mutable size : int }

let create () = { data = [||]; size = 0 }

let length v = v.size

let push v x =
  if v.size = Array.length v.data then begin
    let capacity = max 8 (2 * v.size) in
    let data = Array.make capacity x in
    Array.blit v.data 0 data 0 v.size;
    v.data <- data
  end;
  v.data.(v.size) <- x;
  v.size <- v.size + 1

let get v i =
  if i < 0 || i >= v.size then invalid_arg "Vec.get: index out of bounds";
  v.data.(i)

let set v i x =
  if i < 0 || i >= v.size then invalid_arg "Vec.set: index out of bounds";
  v.data.(i) <- x

let truncate v ~keep ~dummy =
  if keep < 0 || keep > v.size then invalid_arg "Vec.truncate: bad size";
  Array.fill v.data keep (v.size - keep) dummy;
  v.size <- keep

let iter f v =
  for i = 0 to v.size - 1 do
    f v.data.(i)
  done

let find_index_from v start p =
  let rec loop i =
    if i >= v.size then None else if p v.data.(i) then Some i else loop (i + 1)
  in
  loop (max 0 start)

let fold_left f acc v =
  let acc = ref acc in
  for i = 0 to v.size - 1 do
    acc := f !acc v.data.(i)
  done;
  !acc

let to_list v = List.init v.size (fun i -> v.data.(i))

let clear v = v.size <- 0
