(* SplitMix64, computed on immediate ints. The reference algorithm works
   on an [int64] state, but every [Int64] intermediate is boxed on the
   minor heap (~40 words per draw on a non-flambda compiler) — and one
   latency draw rides on every message send, so the generator is on the
   event spine's hot path. The state is therefore split into two 32-bit
   halves held in tagged ints, with the 64-bit multiply done in 16-bit
   limbs; every output is bit-identical to the [int64] version (the
   trace-determinism contract depends on this), and a draw allocates
   nothing beyond its boxed float result. [z_hi]/[z_lo] are per-generator
   scratch holding the mixed output of the latest [advance] — OCaml has
   no way to return a pair without allocating. *)

type t = {
  mutable hi : int;  (** state bits 32..63 *)
  mutable lo : int;  (** state bits 0..31 *)
  mutable z_hi : int;
  mutable z_lo : int;
}

let mask32 = 0xFFFFFFFF

(* golden gamma 0x9E3779B97F4A7C15 *)
let gamma_hi = 0x9E3779B9
let gamma_lo = 0x7F4A7C15

(* the two xor-shift-multiply constants *)
let m1_hi = 0xBF58476D
let m1_lo = 0x1CE4E5B9
let m2_hi = 0x94D049BB
let m2_lo = 0x133111EB

let create ~seed =
  { hi = (seed asr 32) land mask32; lo = seed land mask32; z_hi = 0; z_lo = 0 }

(* z ^= z >>> n, for 0 < n < 32. *)
let xorshift t n =
  let zhi = t.z_hi and zlo = t.z_lo in
  t.z_lo <- zlo lxor (((zhi land ((1 lsl n) - 1)) lsl (32 - n)) lor (zlo lsr n));
  t.z_hi <- zhi lxor (zhi lsr n)

(* z <- z * b (mod 2^64), by 16-bit limbs: column sums stay under 2^34,
   comfortably inside a 63-bit tagged int. *)
let mul_into t bhi blo =
  let alo = t.z_lo and ahi = t.z_hi in
  let a0 = alo land 0xFFFF and a1 = alo lsr 16 in
  let a2 = ahi land 0xFFFF and a3 = ahi lsr 16 in
  let b0 = blo land 0xFFFF and b1 = blo lsr 16 in
  let b2 = bhi land 0xFFFF and b3 = bhi lsr 16 in
  let c0 = a0 * b0 in
  let c1 = (a1 * b0) + (a0 * b1) in
  let c2 = (a2 * b0) + (a1 * b1) + (a0 * b2) in
  let c3 = (a3 * b0) + (a2 * b1) + (a1 * b2) + (a0 * b3) in
  let low = c0 + ((c1 land 0xFFFF) lsl 16) in
  t.z_lo <- low land mask32;
  t.z_hi <- (c2 + ((c3 land 0xFFFF) lsl 16) + (c1 lsr 16) + (low lsr 32)) land mask32

(* Advance the state by the golden gamma and run the SplitMix64 output
   function; the mixed result lands in [z_hi]/[z_lo]. *)
let advance t =
  let s = t.lo + gamma_lo in
  t.lo <- s land mask32;
  t.hi <- (t.hi + gamma_hi + (s lsr 32)) land mask32;
  t.z_hi <- t.hi;
  t.z_lo <- t.lo;
  xorshift t 30;
  mul_into t m1_hi m1_lo;
  xorshift t 27;
  mul_into t m2_hi m2_lo;
  xorshift t 31

let bits64 t =
  advance t;
  Int64.logor (Int64.shift_left (Int64.of_int t.z_hi) 32) (Int64.of_int t.z_lo)

let split t =
  advance t;
  { hi = t.z_hi; lo = t.z_lo; z_hi = 0; z_lo = 0 }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection-free modulo is fine here: bounds are tiny relative to 2^62
     so bias is negligible for simulation purposes. *)
  advance t;
  ((t.z_hi lsl 30) lor (t.z_lo lsr 2)) mod bound

let float t bound =
  (* 53 random bits scaled into [0,1). *)
  advance t;
  let bits = float_of_int ((t.z_hi lsl 21) lor (t.z_lo lsr 11)) in
  bits /. 9007199254740992.0 *. bound

let bool t =
  advance t;
  t.z_lo land 1 = 1

let bernoulli t ~p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float t 1.0 < p

let uniform t ~lo ~hi =
  if lo > hi then invalid_arg "Rng.uniform: lo > hi";
  lo +. float t (hi -. lo)

let exponential t ~mean =
  let u = 1.0 -. float t 1.0 in
  -.mean *. log u

let normal t ~mu ~sigma =
  let u1 = 1.0 -. float t 1.0 in
  let u2 = float t 1.0 in
  let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  mu +. (sigma *. z)

let lognormal t ~mu ~sigma = exp (normal t ~mu ~sigma)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
