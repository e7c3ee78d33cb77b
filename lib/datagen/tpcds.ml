(* Synthetic TPC-DS-style dataset: a wide store_sales fact joining the usual
   wide dimensions. Column sets follow the TPC-DS spec's names (subset), so
   the schema is genuinely wide — which is what drives the paper's largest
   batch sizes for this dataset (Figure 5, TPC-DS column).

     StoreSales(datesk, itemsk, storesk, customersk, quantity,
                wholesalecost, listprice, salesprice, extdiscountamt,
                extsalesprice, extwholesalecost, extlistprice, exttax,
                couponamt, netpaid, netpaidtax, netprofit)     -- fact
     DateDim(datesk, year, moy, dom, dow, qoy, holiday, weekend)
     Item(itemsk, icategory, iclass, ibrand, icurrentprice, iwholesalecost)
     Store(storesk, sstate, scounty, sfloorspace, semployees, smarket)
     Customer(customersk, cbirthyear, cgender, ceducation, ccredit, cdepcount)
     HouseholdDem(hdemosk, hdincomeband, hdbuypotential, hddepcount,
                  hdvehiclecount)
     Promotion(promosk, pchannelemail, pchanneltv, pcost, presponsetarget)
*)

open Relational
open Gen_util

let name = "tpcds"

type sizes = {
  n_dates : int;
  n_items : int;
  n_stores : int;
  n_customers : int;
  n_sales : int;
}

let sizes ?(scale = 1.0) () =
  {
    n_dates = scaled 120 scale;
    n_items = scaled 300 scale;
    n_stores = scaled 30 scale;
    n_customers = scaled 800 scale;
    n_sales = scaled ~floor:20 30_000 scale;
  }

let generate ?(scale = 1.0) ~seed () =
  let s = sizes ~scale () in
  let rng = Util.Prng.create seed in
  let date_dim =
    build "DateDim"
      [
        ("datesk", Value.TInt); ("year", Value.TInt); ("moy", Value.TInt);
        ("dom", Value.TInt); ("dow", Value.TInt); ("qoy", Value.TInt);
        ("holiday", Value.TInt); ("weekend", Value.TInt);
      ]
      s.n_dates
      (fun datesk ->
        let moy = datesk * 12 / Stdlib.max 1 s.n_dates in
        [|
          int datesk; int (2000 + (datesk / 365)); int moy; int (datesk mod 28);
          int (datesk mod 7); int (moy / 3);
          int (if Util.Prng.float rng 1.0 < 0.05 then 1 else 0);
          int (if datesk mod 7 >= 5 then 1 else 0);
        |])
  in
  let item =
    build "Item"
      [
        ("itemsk", Value.TInt); ("icategory", Value.TInt); ("iclass", Value.TInt);
        ("ibrand", Value.TInt); ("icurrentprice", Value.TFloat);
        ("iwholesalecost", Value.TFloat);
      ]
      s.n_items
      (fun itemsk ->
        let price = Util.Prng.float_range rng 1.0 300.0 in
        [|
          int itemsk; int (Util.Prng.int rng 10); int (Util.Prng.int rng 100);
          int (Util.Prng.int rng 50); flt price;
          flt (price *. Util.Prng.float_range rng 0.4 0.8);
        |])
  in
  let store =
    build "Store"
      [
        ("storesk", Value.TInt); ("sstate", Value.TInt); ("scounty", Value.TInt);
        ("sfloorspace", Value.TFloat); ("semployees", Value.TFloat);
        ("smarket", Value.TInt);
      ]
      s.n_stores
      (fun storesk ->
        [|
          int storesk; int (Util.Prng.int rng 20); int (Util.Prng.int rng 60);
          flt (Util.Prng.float_range rng 5_000_000.0 9_000_000.0);
          flt (float_of_int (Util.Prng.int_range rng 200 300));
          int (Util.Prng.int rng 10);
        |])
  in
  let customer =
    build "Customer"
      [
        ("customersk", Value.TInt); ("cbirthyear", Value.TFloat);
        ("cgender", Value.TInt); ("ceducation", Value.TInt);
        ("ccredit", Value.TInt); ("cdepcount", Value.TFloat);
      ]
      s.n_customers
      (fun customersk ->
        [|
          int customersk; flt (float_of_int (Util.Prng.int_range rng 1930 2005));
          int (Util.Prng.int rng 2); int (Util.Prng.int rng 7);
          int (Util.Prng.int rng 4); flt (float_of_int (Util.Prng.int rng 7));
        |])
  in
  let n_hdemo = Stdlib.max 3 (s.n_customers / 10) in
  let household =
    build "HouseholdDem"
      [
        ("hdemosk", Value.TInt); ("hdincomeband", Value.TInt);
        ("hdbuypotential", Value.TInt); ("hddepcount", Value.TFloat);
        ("hdvehiclecount", Value.TFloat);
      ]
      n_hdemo
      (fun hdemosk ->
        [|
          int hdemosk; int (Util.Prng.int rng 20); int (Util.Prng.int rng 6);
          flt (float_of_int (Util.Prng.int rng 9));
          flt (float_of_int (Util.Prng.int rng 4));
        |])
  in
  let n_promo = Stdlib.max 3 (s.n_items / 10) in
  let promotion =
    build "Promotion"
      [
        ("promosk", Value.TInt); ("pchannelemail", Value.TInt);
        ("pchanneltv", Value.TInt); ("pcost", Value.TFloat);
        ("presponsetarget", Value.TInt);
      ]
      n_promo
      (fun promosk ->
        [|
          int promosk; int (Util.Prng.int rng 2); int (Util.Prng.int rng 2);
          flt (Util.Prng.float_range rng 100.0 10_000.0);
          int (Util.Prng.int rng 3);
        |])
  in
  let item_price =
    let c = Relation.column item 4 in
    Array.init s.n_items (fun i -> Column.float_at c i)
  in
  let items_zipf = Util.Prng.zipf_sampler ~n:s.n_items ~s:1.1 in
  let store_sales =
    build "StoreSales"
      ([
         ("datesk", Value.TInt); ("itemsk", Value.TInt); ("storesk", Value.TInt);
         ("customersk", Value.TInt); ("hdemosk", Value.TInt);
         ("promosk", Value.TInt); ("quantity", Value.TFloat);
       ]
      @ List.map
          (fun n -> (n, Value.TFloat))
          [
            "wholesalecost"; "listprice"; "salesprice"; "extdiscountamt";
            "extsalesprice"; "extwholesalecost"; "extlistprice"; "exttax";
            "couponamt"; "netpaid"; "netpaidtax"; "netprofit";
          ])
      s.n_sales
      (fun _ ->
        let itemsk = Util.Prng.zipf rng items_zipf - 1 in
        let price = item_price.(itemsk) in
        let qty =
          clamp 1.0 100.0
            ((200.0 /. (1.0 +. price)) +. Util.Prng.gaussian rng ~mu:0.0 ~sigma:3.0)
        in
        let sales = qty *. price *. Util.Prng.float_range rng 0.7 1.0 in
        let cost = qty *. price *. Util.Prng.float_range rng 0.4 0.7 in
        Array.append
          [|
            int (Util.Prng.int rng s.n_dates); int itemsk;
            int (Util.Prng.int rng s.n_stores); int (Util.Prng.int rng s.n_customers);
            int (Util.Prng.int rng n_hdemo); int (Util.Prng.int rng n_promo);
            flt qty;
          |]
          [|
            flt cost; flt (price *. qty); flt sales;
            flt (sales *. Util.Prng.float_range rng 0.0 0.2);
            flt sales; flt cost; flt (price *. qty);
            flt (sales *. 0.08);
            flt (sales *. Util.Prng.float_range rng 0.0 0.1);
            flt (sales *. 0.95); flt (sales *. 1.03); flt (sales -. cost);
          |])
  in
  Database.create name
    [ store_sales; date_dim; item; store; customer; household; promotion ]

let features =
  Aggregates.Feature.make ~response:"quantity" ~thresholds_per_feature:20
    ~continuous:
      [
        "wholesalecost"; "listprice"; "salesprice"; "extdiscountamt";
        "extsalesprice"; "extwholesalecost"; "extlistprice"; "exttax";
        "couponamt"; "netpaid"; "netpaidtax"; "netprofit";
        "icurrentprice"; "iwholesalecost"; "sfloorspace"; "semployees";
        "cbirthyear"; "cdepcount"; "hddepcount"; "hdvehiclecount"; "pcost";
      ]
    ~categorical:
      [
        "year"; "moy"; "dom"; "dow"; "qoy"; "holiday"; "weekend";
        "icategory"; "iclass"; "ibrand"; "sstate"; "scounty"; "smarket";
        "cgender"; "ceducation"; "ccredit"; "hdincomeband"; "hdbuypotential";
        "pchannelemail"; "pchanneltv"; "presponsetarget";
      ]
    ()

let mi_attrs =
  [
    "year"; "moy"; "dom"; "dow"; "qoy"; "holiday"; "weekend"; "icategory";
    "iclass"; "ibrand"; "sstate"; "scounty"; "smarket"; "cgender";
    "ceducation"; "ccredit"; "hdincomeband"; "hdbuypotential";
    "pchannelemail"; "pchanneltv"; "presponsetarget"; "storesk"; "itemsk";
  ]

let ivm_features =
  [ "quantity"; "salesprice"; "netprofit"; "icurrentprice"; "sfloorspace";
    "cbirthyear" ]
