(* Deterministic pseudo-random number generation based on splitmix64.

   All data generators and randomised algorithms in this repository draw from
   this PRNG rather than [Stdlib.Random] so that every experiment is exactly
   reproducible from a seed. *)

(* The splitmix64 state, unboxed: 8 bytes read and written as an
   little-endian int64, so a step allocates nothing. *)
type t = Bytes.t

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

let[@inline] get_state t = if Sys.big_endian then bswap64 (get64u t 0) else get64u t 0
let[@inline] set_state t x = set64u t 0 (if Sys.big_endian then bswap64 x else x)

let create seed =
  let t = Bytes.create 8 in
  set_state t (Int64.of_int seed);
  t

let copy = Bytes.copy

(* splitmix64 step: the state advances by the golden-gamma constant and the
   output is a finalising mix of the new state. *)
let[@inline] step t =
  let open Int64 in
  let z = add (get_state t) 0x9E3779B97F4A7C15L in
  set_state t z;
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let next_int64 t = step t

(* A non-negative 62-bit integer. *)
let[@inline] bits t = Int64.to_int (Int64.shift_right_logical (step t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  bits t mod bound

let int_range t lo hi =
  if hi < lo then invalid_arg "Prng.int_range: empty range";
  lo + int t (hi - lo + 1)

let[@inline] float t bound = Stdlib.float_of_int (bits t) /. 4611686018427387904.0 *. bound

let[@inline] float_range t lo hi = lo +. float t (hi -. lo)

let bool t = Int64.logand (step t) 1L = 1L

(* Box-Muller transform; one value per call, the pair's second half is
   discarded to keep the generator stateless beyond its state. *)
let[@inline] gaussian t ~mu ~sigma =
  let u1 = float t 1.0 in
  let u1 = if u1 <= 1e-12 then 1e-12 else u1 in
  let u2 = float t 1.0 in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let shuffle_in_place t arr =
  let n = Array.length arr in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let choice t arr =
  if Array.length arr = 0 then invalid_arg "Prng.choice: empty array";
  arr.(int t (Array.length arr))

let split t = create (Int64.to_int (step t))

(* Full-jitter exponential backoff (the AWS architecture-blog variant):
   uniform in [0, min cap (base * 2^attempt)]. Full jitter beats equal/no
   jitter at decorrelating retry storms — two clients that failed together
   do not retry together. The exponent is clamped so [1 lsl attempt] cannot
   overflow into a negative sleep. *)
let backoff t ~base ~cap ~attempt =
  if base < 0.0 || cap < 0.0 then invalid_arg "Prng.backoff: negative base or cap";
  let attempt = Stdlib.max 0 (Stdlib.min 60 attempt) in
  let ceiling = Float.min cap (base *. Float.of_int (1 lsl attempt)) in
  if ceiling <= 0.0 then 0.0 else float t ceiling

(* Zipf-distributed rank in [1, n] with exponent [s], by Devroye's
   rejection sampling. A candidate x is an integer in [1, n], so a sampler
   reads x^(s-1) from a table built once per (n, s); a rejected candidate
   draws again. *)
type zipf = { n : int; b : float; pow : float array (* x^(s-1) at x *) }

let zipf_sampler ~n ~s =
  if n <= 0 then invalid_arg "Prng.zipf_sampler: n must be positive";
  if s <= 0.0 then { n; b = 0.0; pow = [||] }
  else
    { n; b = 2.0 ** (s -. 1.0); pow = Array.init (n + 1) (fun x -> float_of_int x ** (s -. 1.0)) }

let rec zipf_draw t z nf =
  let u = float t 1.0 in
  let u = if u <= 1e-12 then 1e-12 else u in
  let v = float t 1.0 in
  let x = Float.of_int (Float.to_int (nf ** u)) +. 1.0 in
  let x = if x <= nf then x else nf in
  let t' = z.pow.(Float.to_int x) in
  if v *. x *. (t' -. 1.0) /. (z.b -. 1.0) <= t' /. z.b then Float.to_int x
  else zipf_draw t z nf

let zipf t z =
  if Array.length z.pow = 0 then int_range t 1 z.n
  else
    let x = zipf_draw t z (float_of_int z.n) in
    if x < 1 then 1 else if x > z.n then z.n else x
