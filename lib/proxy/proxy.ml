(* Library facade. The single-node proxy implementation lives in
   [Node]; [Farm] composes several nodes behind a consistent-hash
   ring. Re-exported here so users write [Proxy.request],
   [Proxy.Farm.create], [Proxy.Cache.find] and so on. *)

module Cache = Cache
module Pipeline = Pipeline
module Httpwire = Httpwire
module Breaker = Breaker
module Admission = Admission

include Node

module Farm = Farm
module Control = Control
