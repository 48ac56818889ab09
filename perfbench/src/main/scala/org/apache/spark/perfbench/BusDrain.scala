package org.apache.spark.perfbench

import org.apache.spark.SparkContext

/** Blocks until every listener has processed every event posted so far.
  * Lives in Spark's package because the drain is `private[spark]`.
  */
object BusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
