package org.apache.spark.repro

import org.apache.spark.SparkContext

/** Blocks until every listener has seen every event posted so far (Spark's package: the drain is `private[spark]`). */
object BusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
