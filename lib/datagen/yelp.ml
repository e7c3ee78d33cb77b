(* Synthetic Yelp dataset (public Yelp academic dataset schema, as used by
   LMFAO's evaluation):

     Review(userid, busid, stars, useful, funny, cool)  -- fact
     Business(busid, bcity, bstate, bstars, breviewcount, isopen, lat, lon)
     User(userid, ureviewcount, uavgstars, fans, elite, + 6 compliment
          counters)
     Attribute(busid, + 12 business attributes: noise, goodfor, wifi,
          parking, alcohol, ambience, smoking, takeout, delivery,
          creditcards, tv, outdoor)

   Join tree: Review joins User on userid and Business on busid; Attribute
   joins Business on busid. The response is the review's star rating. *)

open Relational
open Gen_util

let name = "yelp"

type sizes = { n_users : int; n_business : int; n_reviews : int }

let sizes ?(scale = 1.0) () =
  {
    n_users = scaled 500 scale;
    n_business = scaled 200 scale;
    n_reviews = scaled ~floor:20 25_000 scale;
  }

let generate ?(scale = 1.0) ~seed () =
  let s = sizes ~scale () in
  let rng = Util.Prng.create seed in
  let business =
    build "Business"
      [
        ("busid", Value.TInt); ("bcity", Value.TInt); ("bstate", Value.TInt);
        ("bstars", Value.TFloat); ("breviewcount", Value.TFloat);
        ("isopen", Value.TInt); ("lat", Value.TFloat); ("lon", Value.TFloat);
      ]
      s.n_business
      (fun busid ->
        let state = Util.Prng.int rng 12 in
        [|
          int busid; int ((state * 4) + Util.Prng.int rng 4); int state;
          flt (Util.Prng.float_range rng 1.0 5.0);
          flt (float_of_int (Util.Prng.int rng 900));
          int (if Util.Prng.float rng 1.0 < 0.85 then 1 else 0);
          flt (Util.Prng.float_range rng 25.0 49.0);
          flt (Util.Prng.float_range rng (-124.0) (-70.0));
        |])
  in
  let users =
    build "User"
      ([
         ("userid", Value.TInt); ("ureviewcount", Value.TFloat);
         ("uavgstars", Value.TFloat); ("fans", Value.TFloat);
         ("elite", Value.TInt); ("compliments", Value.TFloat);
       ]
      @ List.map
          (fun n -> (n, Value.TFloat))
          [
            "complimenthot"; "complimentmore"; "complimentcute";
            "complimentfunny"; "complimentcool"; "complimentwriter";
          ])
      s.n_users
      (fun userid ->
        Array.append
          [|
            int userid;
            flt (float_of_int (Util.Prng.int rng 400));
            flt (Util.Prng.float_range rng 1.0 5.0);
            flt (float_of_int (Util.Prng.int rng 150));
            int (if Util.Prng.float rng 1.0 < 0.1 then 1 else 0);
            flt (float_of_int (Util.Prng.int rng 300));
          |]
          (Array.init 6 (fun _ -> flt (float_of_int (Util.Prng.int rng 60)))))
  in
  let attributes =
    build "Attribute"
      (("busid", Value.TInt)
      :: List.map
           (fun n -> (n, Value.TInt))
           [
             "attnoise"; "attgoodfor"; "attwifi"; "attparking"; "attalcohol";
             "attambience"; "attsmoking"; "atttakeout"; "attdelivery";
             "attcreditcards"; "atttv"; "attoutdoor";
           ])
      s.n_business
      (fun busid ->
        Array.append [| int busid |]
          (Array.init 12 (fun k -> int (Util.Prng.int rng (2 + (k mod 4))))))
  in
  let b_stars =
    let c = Relation.column business 3 in
    Array.init s.n_business (fun b -> Column.float_at c b)
  in
  let u_stars =
    let c = Relation.column users 2 in
    Array.init s.n_users (fun u -> Column.float_at c u)
  in
  let users_zipf = Util.Prng.zipf_sampler ~n:s.n_users ~s:1.1
  and business_zipf = Util.Prng.zipf_sampler ~n:s.n_business ~s:1.1 in
  let reviews =
    build "Review"
      [
        ("userid", Value.TInt); ("busid", Value.TInt); ("stars", Value.TFloat);
        ("useful", Value.TFloat); ("funny", Value.TFloat); ("cool", Value.TFloat);
      ]
      s.n_reviews
      (fun _ ->
        let userid = Util.Prng.zipf rng users_zipf - 1 in
        let busid = Util.Prng.zipf rng business_zipf - 1 in
        let stars =
          clamp 1.0 5.0
            ((0.5 *. b_stars.(busid))
            +. (0.4 *. u_stars.(userid))
            +. Util.Prng.gaussian rng ~mu:0.5 ~sigma:0.7)
        in
        [|
          int userid; int busid; flt stars;
          flt (float_of_int (Util.Prng.int rng 20));
          flt (float_of_int (Util.Prng.int rng 10));
          flt (float_of_int (Util.Prng.int rng 10));
        |])
  in
  Database.create name [ reviews; business; users; attributes ]

let features =
  Aggregates.Feature.make ~response:"stars" ~thresholds_per_feature:20
    ~continuous:
      [ "useful"; "funny"; "cool"; "bstars"; "breviewcount"; "lat"; "lon";
        "ureviewcount"; "uavgstars"; "fans"; "compliments";
        "complimenthot"; "complimentmore"; "complimentcute";
        "complimentfunny"; "complimentcool"; "complimentwriter" ]
    ~categorical:
      [ "bcity"; "bstate"; "isopen"; "elite"; "attnoise"; "attgoodfor";
        "attwifi"; "attparking"; "attalcohol"; "attambience"; "attsmoking";
        "atttakeout"; "attdelivery"; "attcreditcards"; "atttv"; "attoutdoor" ]
    ()

let mi_attrs =
  [ "bcity"; "bstate"; "isopen"; "elite"; "attnoise"; "attgoodfor";
    "attwifi"; "attparking"; "attalcohol"; "attambience"; "attsmoking";
    "atttakeout"; "attdelivery"; "attcreditcards"; "atttv"; "attoutdoor";
    "busid"; "userid" ]

let ivm_features = [ "stars"; "useful"; "bstars"; "ureviewcount"; "uavgstars"; "fans" ]
