package org.apache.spark

/** Spark delivers listener events on a background thread; the traced run
  * reads its per-layer counters only after every event of the layer calls
  * it timed has been delivered. `waitUntilEmpty` is package-private, hence
  * this object's package.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext, timeoutMs: Long = 60000L): Unit = sc.listenerBus.waitUntilEmpty(timeoutMs)
}
